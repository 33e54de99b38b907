"""Write reference.json, the per-split outputs that the checks compare with.

    python3 perfbench/make_reference.py

Whether a run on an Iris split recovers lambda* depends on the split (the
acceptance suite's claim is made for split 4 only), so the checks compare
each split with the outputs stored here. Regenerate only on a commit whose
outputs are trusted; the benchmark itself never writes this file.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import (HIT_SHARE, REFERENCE_PATH, SPLIT_POOL, SvmGrid, SvmRun,  # noqa: E402
                       _iris_split, _svm_oracle)


def main():
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {"svm-run": {}, "svm-grid": {}}
    for split in range(SPLIT_POOL):
        lam_star, _ = _svm_oracle(_iris_split(split)[0])
        threshold = HIT_SHARE * max(1.0, float(np.linalg.norm(lam_star)))

        run = SvmRun(0, work)
        run.splits = [split]
        run.prepare()
        assert run.iteration() is None
        summary = json.loads((work / f"svm-run-{split}" / "summary.json").read_text())
        dist = summary["dist_to_lambda_star"]
        reference["svm-run"][str(split)] = {
            "dist_to_lambda_star": dist, "hit": dist <= threshold,
            "train_accuracy": summary["train_accuracy"],
            "validation_accuracy": summary["validation_accuracy"]}

        grid = SvmGrid(0, work, jobs=os.cpu_count() or 1)
        grid.split = split
        grid.prepare()
        assert grid.iteration() is None
        rows = grid._rows()
        assert len(rows) == len(grid.cells())
        reference["svm-grid"][str(split)] = [[flag, value if flag == 0 else None]
                                             for _kp, _ki, _nu, value, flag in rows]
        hits = [(kp, ki) for kp, ki, _nu, value, flag in rows if flag == 0 and value <= threshold]
        print(f"split {split}: run distance {dist:.3e} (hit {dist <= threshold}), "
              f"grid hits {len(hits)} of which GA {sum(kp == 0.0 for kp, _ in hits)}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
