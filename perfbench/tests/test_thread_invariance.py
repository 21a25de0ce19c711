"""diffusive-short's CSV data rows do not depend on the worker count.

README's reproducibility model: every replicate draws from its own Philox
stream and aggregation is ordered by replicate index, so HULLWALK_THREADS=1
and 2 must give byte-identical data rows.  Only the timestamp header differs.
"""

import os
import subprocess
import sys

from run import OUT_DIR, ROOT, SRC, WORKLOADS


def data_rows(threads: int) -> list[str]:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"thread-invariance-{threads}.csv"
    env = dict(os.environ, PYTHONPATH=str(SRC), HULLWALK_THREADS=str(threads))
    argv = [*WORKLOADS["diffusive-short"].command, "--seed", "7", "--out", str(out)]
    subprocess.run([sys.executable, "-m", "hullwalk", *argv], env=env, cwd=ROOT, check=True, timeout=300)
    return [line for line in out.read_text().splitlines() if not line.startswith("# timestamp:")]


def test_diffusive_short_rows_identical_across_thread_counts():
    one, two = data_rows(1), data_rows(2)
    assert sum(not line.startswith("#") for line in one) == 22  # column header and 21 checkpoints
    assert one == two
