"""Regenerate perfbench/reference.json.

    python3 perfbench/make_reference.py

For every (alpha, beta, n) in the workload pools (workloads.py) this
stores lambda_min of the exact pencil, computed by oracle.py in mpmath
at 50 digits without calling mblab, and for the profile cases the sup
defect of the profile comparison recomputed from that eigenpair.
Entries already in the file are kept, so an interrupted run resumes;
delete the file to recompute everything.  The n = 4e4 cases take about
a minute each on a 2-core x86 sandbox; the whole table takes ~10 min.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import mpmath

import oracle
import workloads as wl

PATH = Path(__file__).resolve().parent / "reference.json"
SIG_DIGITS = 30


def main():
    data = json.loads(PATH.read_text()) if PATH.exists() else {}
    data.setdefault("digits", oracle.DIGITS)
    lam_table = data.setdefault("lambda", {})
    sup_table = data.setdefault("sup_defect", {})
    profile = set(wl.profile_cases())
    for a, b, n in wl.reference_cases():
        key = wl.case_key(a, b, n)
        want_sup = (a, b, n) in profile
        if key in lam_table and (key in sup_table or not want_sup):
            continue
        t0 = time.perf_counter()
        lam, w, width, passes = oracle.smallest_eigenpair(a, b, n)
        lam_table[key] = mpmath.nstr(lam, SIG_DIGITS, strip_zeros=False)
        if want_sup:
            sup = oracle.sup_defect(a, b, n, lam, w)
            sup_table[key] = mpmath.nstr(sup, SIG_DIGITS, strip_zeros=False)
        tmp = PATH.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, PATH)
        print(f"{key}: lambda {lam_table[key]} (width {mpmath.nstr(width, 3)}, "
              f"{passes} inertia passes, {time.perf_counter() - t0:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
