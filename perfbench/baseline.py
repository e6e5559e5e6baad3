"""Re-measure the single-case baseline table of ROADMAP.md, raw and
calibrated by the reference unit, from the repository root:

    python3 perfbench/baseline.py

Each case is the median of five runs; a calibrated figure is the raw time
times NOMINAL_S over the median of the reference units timed around it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import calibrate
    from schottky_strata import cyclic_schottky as cs
    from schottky_strata import homorbits as ho
    from schottky_strata import strata

    unit = calibrate.RefUnit()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def launch(*args):
        return lambda: subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                      capture_output=True, check=True, timeout=120)

    spec = cs.build_spec(strata.AdmissibleTuple(154, 31, 4, 2, 0))
    phi = next(iter(cs.normalized_homs(spec)))
    cases = [
        ("python -c pass", launch("-c", "pass")),
        ("python -c 'import schottky_strata.cli'",
         launch("-c", "import schottky_strata.cli")),
        ("cli count --g 100 --p 11",
         launch("-m", "schottky_strata.cli", "count", "--g", "100", "--p", "11")),
        ("cli loxcheck --g 26 --p 5 --t 6 --r 0 --s 0 --max-syllables 4",
         launch("-m", "schottky_strata.cli", "loxcheck", "--g", "26", "--p", "5",
                "--t", "6", "--r", "0", "--s", "0", "--max-syllables", "4")),
        ("orbit_count_tuples(11,3,3), scaled",
         lambda: ho.orbit_count_tuples(11, 3, 3, ho.PERM_INV_SCALE)),
        ("orbit_count_tuples(11,3,3), unscaled",
         lambda: ho.orbit_count_tuples(11, 3, 3, ho.PERM_INV)),
        ("bfs_orbit_count(7,1,2,1)", lambda: ho.bfs_orbit_count(7, 1, 2, 1)),
        ("kernel_presentation (154,31;4,2,0)", lambda: cs.kernel_presentation(phi)),
        ("enumerate_tuples(5000,5)", lambda: strata.enumerate_tuples(5000, 5)),
    ]
    print(f"| case | raw ms | calibrated ms |\n| --- | --- | --- |")
    for name, call in cases:
        call()  # warm caches once
        raw, cal = [], []
        for _ in range(REPEATS):
            refs = [unit.sample() for _ in range(3)]
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            refs += [unit.sample() for _ in range(3)]
            raw.append(elapsed)
            cal.append(elapsed * calibrate.NOMINAL_S / statistics.median(refs))
        print(f"| `{name}` | {statistics.median(raw) * 1000:.1f} "
              f"| {statistics.median(cal) * 1000:.1f} |")


if __name__ == "__main__":
    main()
