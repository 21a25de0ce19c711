"""The CSV/JSON pipeline: simulate -> report, via the CLI, with the limits it checks.

report rebuilds the model from the CSV's '# model:' line and checks the run
against the same constants and bounds that limits writes for that model.

Run:  python3 demos/06_cli_pipeline.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ARGS = dict(model="pr:0.2,0", steps="20000", replicates="400", seed="42")

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    csv_path, lim_path, rep_path = tmp / "run.csv", tmp / "limits.json", tmp / "report.json"

    def cli(*argv):
        cmd = [sys.executable, "-m", "hullwalk", *argv]
        print("$", " ".join(cmd[2:]))
        subprocess.run(cmd, check=True)

    cli(
        "simulate", "--model", ARGS["model"], "--steps", ARGS["steps"],
        "--replicates", ARGS["replicates"], "--seed", ARGS["seed"], "--out", str(csv_path),
    )
    cli("limits", "--model", ARGS["model"], "--out", str(lim_path))
    cli("report", "--in", str(csv_path), "--out", str(rep_path))

    print("\nfirst lines of the CSV:")
    print("\n".join(csv_path.read_text().splitlines()[:10]))

    print("\nlimits:", json.dumps(json.loads(lim_path.read_text())))

    print("\nverdicts:")
    report = json.loads(rep_path.read_text())
    for row in report["report"]:
        print(f"  {row['quantity']:>18}: estimate {row['estimate']:.5g}  -> {row['verdict']}")
