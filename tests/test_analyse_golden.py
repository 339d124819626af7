"""Output bytes of the analysis commands pinned by SHA-256.

`corr`, `spectrum`, `chsh` and `demo-figure` print floats with 17
significant digits, so any change to the curve, the spectrum, the CHSH
scan's value or tie-breaking, or the output format shows up here as a
changed digest.  The digests were recorded from the per-a' CHSH loop and
the per-command CSV writers that the row-block scan and the shared curve
writer replaced.
"""
import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from spindisk.cli import main

from test_sim_golden import COLOURING, MIXTURE

PI = math.pi
MODELS = {"colouring": COLOURING, "mixture": MIXTURE}

CORR_DIGESTS = {
    "colouring": "106b94917fa33fef89a8a1925bcc14af72ebfd510888a7f9c189e6de788827b8",
    "mixture": "1d5df048e33ec6de8423557b9b07fa11be5f2eb99fc847058877630191e5cdbb",
}

SPECTRUM_DIGESTS = {  # (CSV, JSON report)
    "colouring": (
        "4680066ac821bef6e6321e83ca439bbfda0562ff54a2815841ba9ccff900eadb",
        "9dcac013a0a383693ff2f6e672160687e279b62947cfa56dc98a25cb3e411a3b",
    ),
    "mixture": (
        "87da86bebf446dafbc77fc760d9af997437714b279989fc786d8d8f5a04beec6",
        "21e6b15c7549dc141fe60954ebd76690be14493a6f0286186199c4f75f5d7ea4",
    ),
}

CHSH_DIGESTS = {
    ("colouring", "90"): "22f19b72e43d6ace68827b3749bfb1300d1356420f1832ca720398212ef4acf9",
    ("colouring", "360"): "ef40fb657e6ed7dae7e9e831e899846ee1de46484ebe3f664e1bac555a62b9fa",
    ("mixture", "90"): "e3ee47977e527439faa8501b986e97982747bc5c0521062e8131a9771cf62efb",
    ("mixture", "360"): "1e7898baf10b473e0b2330caa2358b2c95407e2963f3d3e95991ae9720dfd819",
    ("quantum", "90"): "919f69abdb6ed19d733b42282535c439fd2848d4006f1deafcbb4e041674f97d",
    ("quantum", "360"): "eb49ffb7c7e32d0ec053b327febd4adaf6843dec2a7a4c3d62847c6412d629dc",
}

DEMO_PANEL_DIGEST = "d4459d04583ddd54e28a708263c17e2f6b7d5f82b7e70cb9b60c2e962ffa7cc6"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(tmp_path, monkeypatch, cmd, model=None):
    monkeypatch.chdir(tmp_path)  # outputs name the model file; keep it relative
    if model is not None:
        (tmp_path / "model.json").write_text(json.dumps(MODELS[model]))
        cmd = [cmd[0], "model.json", *cmd[1:]]
    result = CliRunner().invoke(main, cmd)
    assert result.exit_code == 0, result.output
    return result


@pytest.mark.parametrize("model", sorted(CORR_DIGESTS))
def test_corr_digest(model, tmp_path, monkeypatch):
    result = _invoke(tmp_path, monkeypatch, ["corr", "--grid", "721"], model)
    assert _sha(result.stdout_bytes) == CORR_DIGESTS[model]


@pytest.mark.parametrize("model", sorted(SPECTRUM_DIGESTS))
def test_spectrum_digests(model, tmp_path, monkeypatch):
    _invoke(tmp_path, monkeypatch,
            ["spectrum", "--nmax", "99", "--out", "spec.csv", "--report", "report.json"], model)
    csv_digest, json_digest = SPECTRUM_DIGESTS[model]
    assert _sha((tmp_path / "spec.csv").read_bytes()) == csv_digest
    assert _sha((tmp_path / "report.json").read_bytes()) == json_digest


@pytest.mark.parametrize("case", sorted(CHSH_DIGESTS))
def test_chsh_digest(case, tmp_path, monkeypatch):
    model, steps_per_pi = case
    step = ["--scan-step", str(PI / int(steps_per_pi))]
    if model == "quantum":
        result = _invoke(tmp_path, monkeypatch, ["chsh", "--quantum", *step])
    else:
        result = _invoke(tmp_path, monkeypatch, ["chsh", *step], model)
    assert _sha(result.stdout_bytes) == CHSH_DIGESTS[case]


def test_demo_figure_panel_digest(tmp_path, monkeypatch):
    result = _invoke(tmp_path, monkeypatch,
                     ["demo-figure", "--nswitch", "6", "--panels", "2", "--seed", "7",
                      "--outdir", "panels"])
    assert result.stdout_bytes == b""
    assert result.stderr == "wrote 2 panel files to panels\n"
    assert _sha((tmp_path / "panels" / "panel_02.csv").read_bytes()) == DEMO_PANEL_DIGEST
