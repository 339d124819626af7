"""`optimize` output bytes pinned by SHA-256.

The report prints every distance, switch angle, weight and trace value
with full precision, so any change to the starts, the searches, the
Frank-Wolfe bookkeeping or the JSON layout shows up here as a changed
digest.  The first three cases are the benchmark's optimise jobs.
`l2_k4_seed2` is a search that does not end at the triangle: it ends
with a pair collapsed on the lower bound and one switch next to pi,
D_triangle + 2.9e-12 away, so it reports the triangle; its end point is
pinned by `test_optimize.py::TestFixedK::test_search_end_point_pinned`.
`pool_024` stops at iteration 1 with the triangle and a gap of exactly
0.0: the gap and the subproblem's triangle value come from the same
table, so no rounding difference between two measurement paths shows up
as a gap.  `SEARCH_PATHS` pins the library's searches over ten seeds
each: their reports, evaluation counts and end points.  The digests
depend on numpy's rounding and on scipy's L-BFGS-B, the one solver of
every search, so CI pins both.
"""
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

import spindisk.optimize
from spindisk import optimise_fixed_k, optimise_mixture
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
        "a138d5a30377dbcd870060d1bcef910b58015ad2066a94019c3c6214e39e8854",
    ),
    "l2_k4_seed2": (
        ["--k", "4", "--starts", "1", "--seed", "2"],
        "a25640cb8443dd6114521dd583cefb92242a37cfb3f65463d10223beeadd0fd1",
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


#: job -> (SHA-256 of the to_dict() JSON of seeds 0-9, one line each; total
#: nfev of the searches; SHA-256 of every search's end point and value).
#: The reports alone pin little: every L2 fixed-k job reports the triangle,
#: so l2_k2 and l2_k4 share a report digest.  The evaluation counts and end
#: points pin each search's path.  Recorded before the per-evaluation
#: kernels lost their np.diff/np.append/np.clip/np.outer forms; sup_k2's
#: evaluation count and end points re-recorded when the sup searches moved
#: from Nelder-Mead to L-BFGS-B on the exact peak gradient (its report is
#: unchanged).  sup_k4 pins a sup search that takes ~35 evaluations a
#: start, where sup_k2 takes ~4.
SEARCH_PATHS = {
    "l2_k2": (
        lambda seed: optimise_fixed_k(2, n_starts=4, seed=seed),
        "94cc9de033f772e1a79b4e3ce46c5ef31be8181b2e54d29063d6656760067f8b",
        818,
        "bcc312f85e494c37f7d2c666153ef49fc1f62428d5a8141c4684391c237b676e",
    ),
    "l2_k4": (
        lambda seed: optimise_fixed_k(4, n_starts=4, seed=seed),
        "94cc9de033f772e1a79b4e3ce46c5ef31be8181b2e54d29063d6656760067f8b",
        2054,
        "cb46e1a597194fdabc3b3e0821c5b19ea0e66766718966afec13f85cc5e2f052",
    ),
    "sup_k2": (
        lambda seed: optimise_fixed_k(2, metric="sup", n_starts=2, seed=seed),
        "634e61ee0ba88a1ebcf969c6baa029d4f70448bfad47d16003a16fe6cc6eef7b",
        86,
        "eb5225696e892ee9abf0017fd029a005843418540f50b94a606cb8279e69b4a8",
    ),
    "sup_k4": (
        lambda seed: optimise_fixed_k(4, metric="sup", n_starts=2, seed=seed),
        "634e61ee0ba88a1ebcf969c6baa029d4f70448bfad47d16003a16fe6cc6eef7b",
        686,
        "2763658d969d9ff2cf70d12236ef6b471e5c7c6af3e214e081a4ebcf4312dfd6",
    ),
    "monotone_l2_k2": (
        lambda seed: optimise_fixed_k(2, n_starts=4, seed=seed, monotone=True),
        "46989f585d5a011f997f9c4981ca3aa1a856767c47fecf4cf4602b72b6d3cc52",
        818,
        "bcc312f85e494c37f7d2c666153ef49fc1f62428d5a8141c4684391c237b676e",
    ),
    "pool_024": (
        lambda seed: optimise_mixture([0, 2, 4], n_iterations=5, seed=seed, subproblem_starts=2),
        "3f964913110c2eeb985242b081ba31b3163d5f34fa0594cc2a3388e6a102499a",
        1225,
        "24b63a76d8841407c2e6838239a1c3e96f8940e01ed411e84bccd3e1df020846",
    ),
}


@pytest.mark.parametrize("job", sorted(SEARCH_PATHS))
def test_search_paths_over_ten_seeds(job, monkeypatch):
    run, report_digest, nfev, end_digest = SEARCH_PATHS[job]
    ends = []
    lbfgsb = spindisk.optimize._lbfgsb

    def recording_lbfgsb(*args):
        ends.append(lbfgsb(*args))
        return ends[-1]

    monkeypatch.setattr(spindisk.optimize, "_lbfgsb", recording_lbfgsb)
    text = "\n".join(json.dumps(run(seed).to_dict()) for seed in range(10))
    assert hashlib.sha256(text.encode()).hexdigest() == report_digest
    assert sum(res.nfev for res in ends) == nfev
    points = b"".join(np.append(res.x, res.fun).tobytes() for res in ends)
    assert hashlib.sha256(points).hexdigest() == end_digest
