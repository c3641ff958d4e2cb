"""Record the ``table1_campaign`` reference the benchmark checks against.

Usage: python3 perfbench/record_reference.py

Runs one cold campaign and writes every unit's verdict digest, the
report digest and the Table 1 projection to ``reference.json``.  The
committed file pins the verdicts of the program it was recorded on;
re-record only when a change is meant to alter verdicts.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import REFERENCE, fresh_dir  # noqa: E402
from workloads import CampaignWorkload  # noqa: E402

workload = CampaignWorkload()
root = fresh_dir("vcache")
try:
    result = workload.run(root)
finally:
    shutil.rmtree(root)
REFERENCE.write_text(json.dumps(
    {"scope": workload.config().describe(), **workload.fingerprint(result)},
    indent=1, sort_keys=True) + "\n")
print(f"wrote {REFERENCE}: {result.units} units")
