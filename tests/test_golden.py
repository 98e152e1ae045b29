"""Pinned output bytes on every golden problem: ``closure`` JSON and
stdout, and at seeds 1 and 2 ``verify`` reports and stdout and ``sample``
CSVs; also the ``closure`` bytes of an inline problem over Q(i).

The verify stdout hashes were recorded before the verifier's per-sample
loops were vectorised, the CSV hashes before ``write_sample_csv`` formatted
rows from Python lists, the closure hashes before the torus closure was
rebuilt on ``exactlinalg``.  The report hashes were re-recorded once, when
the report moved to schema 2 (``torus_dims`` in place of
``heuristic_relations``; every other field unchanged).  The dinh_vu CSV
hashes at seeds 1 and 2 were re-recorded twice: when distances became the
minimum over all of the lattice (only ``min_distance`` moved, on escaped rows
whose nearest translate lay outside the former coefficient box, each to a
smaller value), and when samples moved into cell 0 of the projected lattice
before their distance (only ``min_distance`` moved, in its last digits, on
rows outside cell 0; see CHANGES.md).  The dinh_vu_mutated CSV hashes at
seeds 1 and 2 were re-recorded when a curve's refine window stopped at the
ends of its parameter range (only ``min_distance`` moved, up, on far rows
whose nearest node is a curve end; see CHANGES.md).  A change that
alters an output, even in the last digit of a distance, fails here; if the
change is intended, say so in CHANGES.md and record the new hashes.
"""

import hashlib
import shutil

import pytest

from torusflow.cli import main

# (problem, seed, exit code, sha256 of .report.json, sha256 of stdout)
GOLDEN = [
    ("dinh_vu", 1, 0, "6d7d32680f2eb1a12ba51e9b7c7d60def65313a88fd7c803538d45390cea1612",
     "0e11e053829f13e868394880d2f3312a558d7add88386c755eb28988a1f35f18"),
    ("dinh_vu", 2, 0, "62a5a40f6813ff5ada55c09c4fa0f5b83be0a397603b3669cc2557b48ce0e666",
     "5bc5899657e1b58a201e2fc1eae3e1c2d96bd26df675b6cc2bd45047256a2a02"),
    ("dinh_vu_mutated", 1, 5, "e4e482cbfb9317850071796e4a112c98bfd2fa212b10f00ed01b75484d27ece0",
     "47502fa6d46bf086c48c93e237c4a52bd3a0dc93fbae446b228d066a07d8dfeb"),
    ("dinh_vu_mutated", 2, 5, "35eab23542ef45d380696ab4d586c7987e7ce77dfba737d70bd578238ae04b4d",
     "a28753aa78a985e469447bc30b93f4f7d884c96e949bb6300bb0f0f8395d0eb1"),
    ("hyperbola", 1, 0, "9614f9ff44eb06b482ce9943e775fcb1c4e991337d6d9d14fbb916b7c7b68ed0",
     "767aa00c761bc08141508af1b697a10818bc1c53dbaf585e7a6c9ab9865b52a3"),
    ("hyperbola", 2, 0, "b81f1bf1b061e0f384c268ad1b171bc29f853c98616cc92d1c34ccb949f7c0ca",
     "ab4760b0640235e5ec84f64f335b2cdd765b06ec3e5c10da358e67e562c54db6"),
    ("irrational_direction", 1, 0, "6a0bad377b35b3a05a25e5fbdb1c6fb5ee208f49264b8380f2fb70f86adebd8c",
     "3f8f78b080759b5b3d8098ab2400acedb2054b87cc38458ed4f0b7ee5b0bccc4"),
    ("irrational_direction", 2, 0, "8e120766367ed39ce62e0bf2616d31a55fb1acfc144cd04a8537277d52a38ac3",
     "3f8f78b080759b5b3d8098ab2400acedb2054b87cc38458ed4f0b7ee5b0bccc4"),
    ("parabola", 1, 0, "200d6d9dbc013b926d27520a2829d30c39af7c7611e0b312d100ebde69be2e33",
     "50039e1a67ab3f28e3efa9fa6c7c61790e330e1c47962f14077f9b13ff93c72c"),
    ("parabola", 2, 0, "8be7a255f553b57c019da2864a965fc0edcbde9fa4ffde7ce04db2794c57b171",
     "50039e1a67ab3f28e3efa9fa6c7c61790e330e1c47962f14077f9b13ff93c72c"),
    ("plane_cylinder", 1, 0, "3d27c5d5d2230a70bf12e014084f751d155a2dec344a0ae505409f61f043016e",
     "0515458f0c4bae103ff2fb32ebecd1ee8227c9ce738ad5afff86525584b9ac87"),
    ("plane_cylinder", 2, 0, "fd3b4c40126b28acea4ddce67cf1343f1151dca43c053ccc25b0dd293450f72e",
     "38ba04960dbf0a8966b8afe412556cd079ad4194c651466997992b7f19e2cd2a"),
]


@pytest.mark.parametrize(
    "name, seed, code, report_sha, stdout_sha",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}" for g in GOLDEN],
)
def test_verify_bytes(tmp_path, monkeypatch, capsys, name, seed, code,
                      report_sha, stdout_sha):
    shutil.copy(f"problems/{name}.tfp", tmp_path / f"{name}.tfp")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", f"{name}.tfp", "--seed", str(seed)]) == code
    stdout = capsys.readouterr().out
    report = (tmp_path / f"{name}.tfp.report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == report_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha


# (problem, seed, exit code, sha256 of the sample CSV)
GOLDEN_CSV = [
    ("dinh_vu", 1, 0, "a659aa04f51cc9efcb48f262e2ae6761f10230eafeb31250e5e7ec55010c4983"),
    ("dinh_vu", 2, 0, "08146ac680b484a45a8bec4290e2306f03a67b1987eebceba98292228719d4ff"),
    ("dinh_vu_mutated", 1, 0, "eed3965ff0d7aedba1f2710f861e002545302ac324be487c908352772c5f275a"),
    ("dinh_vu_mutated", 2, 0, "1dee981cfc0ea657080d939c404590f710c4f05156503c437e7bfbb63f6cb81b"),
    ("hyperbola", 1, 0, "bff9d2ccb7c2a370dd771bee827e6a8d6fd40859d4f910530f145c29a7e2d1ce"),
    ("hyperbola", 2, 0, "875e36cfd01e1a98434429362a7a22da03754ab8310ac078f44b8a86e4fd4f2e"),
    ("irrational_direction", 1, 0, "48287bda224387a48ceb4eb058f82eabd5465c2ee3534f86089351dccbc56fb7"),
    ("irrational_direction", 2, 0, "6fe564a171be14e998a899b9af6161da263421883e52c1deea46b79358666b90"),
    ("parabola", 1, 0, "3314313bf3b47734f1c7141c3e70baab5be6035cab4e6da48df32e41b538b9f3"),
    ("parabola", 2, 0, "9923cf473f96bdd5432c42e20abda8e137c9d959cbf8533d952582006080d19f"),
    ("plane_cylinder", 1, 0, "5c9e9890c3a29dca39f35f2a997041a3bd1eeb9f555444ba905707e2eb4535d6"),
    ("plane_cylinder", 2, 0, "cd3aec075ccbbd2dc7f93b88a9027fd6a07c6d76f32dbb63ceb59dba8c56d861"),
]


@pytest.mark.parametrize(
    "name, seed, code, csv_sha",
    GOLDEN_CSV,
    ids=[f"{g[0]}-{g[1]}" for g in GOLDEN_CSV],
)
def test_sample_bytes(tmp_path, monkeypatch, name, seed, code, csv_sha):
    shutil.copy(f"problems/{name}.tfp", tmp_path / f"{name}.tfp")
    monkeypatch.chdir(tmp_path)
    argv = ["sample", f"{name}.tfp", "--seed", str(seed), "--out", "s.csv"]
    assert main(argv) == code
    csv = (tmp_path / "s.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == csv_sha


# (problem, exit code, sha256 of .closure.json or None if none is written,
#  sha256 of stdout); the graph problems have no symbolic analysis (exit 3)
GOLDEN_CLOSURE = [
    ("dinh_vu", 3, None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dinh_vu_mutated", 3, None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hyperbola", 0, "66af46a061149e265a55b502bdcb290e47d9ac2caaa7cfb9b551993ec5e32dda",
     "d0e4409d86b3bc9f8a61bf52eef452d3dde9037ed30cf88cdea83ceea6651894"),
    ("irrational_direction", 0, "263793cba5f26d0d7b9a3ce0447e6c250bb37c14cb6240fcf15185a245c85183",
     "a83d2485dd6f939e2bc30bff7c5be145c31489639b0cbed11884e868bb7fe340"),
    ("parabola", 0, "9c58504f5c3e35301e95f7cdb416da95cf776b3f994072223fcfaf718bafb8ef",
     "1b20bbc9757589ea428d523a2e760fef6434ad23499ba4be3ae11fdb41a97708"),
    ("plane_cylinder", 0, "22361255d3f496f71065a64b663631526ed9aa41fb890873c84f51895789d33f",
     "34302a3aa949b3a4f21abccdd06636ddcec20972ec5c8766669ee7bf1872cd50"),
]


@pytest.mark.parametrize(
    "name, code, json_sha, stdout_sha",
    GOLDEN_CLOSURE,
    ids=[g[0] for g in GOLDEN_CLOSURE],
)
def test_closure_bytes(tmp_path, monkeypatch, capsys, name, code, json_sha,
                       stdout_sha):
    shutil.copy(f"problems/{name}.tfp", tmp_path / f"{name}.tfp")
    monkeypatch.chdir(tmp_path)
    assert main(["closure", f"{name}.tfp"]) == code
    stdout = capsys.readouterr().out
    out = tmp_path / f"{name}.tfp.closure.json"
    if json_sha is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha


# An exact closure over a complex field.  Kept inline rather than in
# problems/, which the mutant fuzz globs: the golden complex problems have
# graph pieces and exit 3 on closure.
GAUSSIAN = """\
schema = 1

# Q(i) with the lattice Z[i]^2 and the curve xy = 1 as one branch.

[field]
min_poly = x^2 + 1
root = rect (-1/2, 1/2) (1/2, 3/2)
i = theta
conj = -theta

[space]
mode = complex
ambient_dim = 2
declared_dim = 1

[lattice]
row = (1, 0)
row = (theta, 0)
row = (0, 1)
row = (0, theta)

[variety]
branch = (t, 1/t)
"""


def test_complex_closure_bytes(tmp_path, monkeypatch, capsys):
    (tmp_path / "gaussian.tfp").write_text(GAUSSIAN)
    monkeypatch.chdir(tmp_path)
    assert main(["closure", "gaussian.tfp"]) == 0
    stdout = capsys.readouterr().out
    assert "torus_dim=2" in stdout and "complex_theorem_applies" in stdout
    out = (tmp_path / "gaussian.tfp.closure.json").read_bytes()
    assert (hashlib.sha256(out).hexdigest()
            == "9ada1d5e279c1fcadd383e073b1178e8aca0ff29babcb7a7245b6cd140e5b8de")
    assert (hashlib.sha256(stdout.encode()).hexdigest()
            == "05fa6d60236068eaaddb34e91a996838a25d5007460803728141217a671cecad")
