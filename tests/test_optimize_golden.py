"""`optimize` output bytes pinned by SHA-256.

The report prints every distance, switch angle, weight and trace value
with full precision, so any change to the starts, the searches, the
Frank-Wolfe bookkeeping or the JSON layout shows up here as a changed
digest.  The first three cases are the benchmark's optimise jobs.
`l2_k4_seed2` is the one search that does not end at the triangle: it
ends with four switches, three below 2e-4 and one next to pi.  The
digests depend on scipy's L-BFGS-B and Nelder-Mead, so CI pins scipy.
"""
import hashlib

import pytest
from click.testing import CliRunner

from spindisk.cli import main

OPTIMIZE_CASES = {
    "l2_k2": (
        ["--k", "2", "--starts", "4"],
        "8029c4de5ab0ec1da364ae9374e6dea21ceef400d4f1e841b472b71098560b39",
    ),
    "sup_k2": (
        ["--k", "2", "--metric", "sup", "--starts", "2"],
        "9dfbb81b3dfe77cb6d7d650330e188dbe62e64ef22fb638833d2183baa5189a4",
    ),
    "pool_024": (
        ["--pool", "0,2,4", "--iterations", "5", "--starts", "2"],
        "7605dfd8a8a62ded73cb8edd174ed941a5bc7539a2621568f183604afd467821",
    ),
    "l2_k4_seed2": (
        ["--k", "4", "--starts", "1", "--seed", "2"],
        "05f62a0b834e6e4c1c167c222a912df1469b5822973796bd150a2c91b39e2ba6",
    ),
    "monotone_k2": (
        ["--k", "2", "--monotone", "--starts", "4"],
        "3604da8074a3a3ac0a784b62915b21401d984ca6a692ae623f50b02d318f4a6d",
    ),
}


@pytest.mark.parametrize("case", sorted(OPTIMIZE_CASES))
def test_optimize_stdout_digest(case):
    args, digest = OPTIMIZE_CASES[case]
    result = CliRunner().invoke(main, ["optimize", *args])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
