"""File formats, canonical config hashing, and the command-line front end.

Binary vector/matrix files must round-trip bit for bit; the CSV variants use
%.17g which also reproduces float64 exactly. The experiment subcommand must
produce byte-identical CSV artifacts for identical flags, since that is the
reproducibility contract of the benchmark harness.
"""

import hashlib
import json
import os
import struct
import warnings

import numpy as np
import pytest

from adl1 import cli
from adl1.errors import FileFormatError
from adl1.io import (
    canonical_json,
    config_hash,
    read_matrix,
    read_matrix_csv,
    read_vector,
    read_vector_csv,
    write_csv,
    write_matrix,
    write_vector,
    write_vector_csv,
)
from adl1.models import relerr, relres
from adl1.operators import make_operator

from oracles import vector_csv_text


# ---------------------------------------------------------------------------
# binary and CSV round-trips


def test_vector_binary_roundtrip_exact(tmp_path, rng):
    x = rng.standard_normal(37) + 1j * rng.standard_normal(37)
    path = tmp_path / "v.bin"
    write_vector(path, x)
    assert np.array_equal(read_vector(path), x)


def test_vector_binary_empty_and_real(tmp_path):
    path = tmp_path / "v.bin"
    write_vector(path, np.zeros(0))
    assert read_vector(path).shape == (0,)
    write_vector(path, np.array([1.0, -2.5]))
    back = read_vector(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, np.array([1.0 + 0j, -2.5 + 0j]))


def test_vector_rejects_2d(tmp_path):
    with pytest.raises(FileFormatError, match="1-D"):
        write_vector(tmp_path / "v.bin", np.zeros((2, 2)))


def test_vector_bad_magic(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(b"NOTME123" + b"\x00" * 24)
    with pytest.raises(FileFormatError, match="bad magic"):
        read_vector(path)
    (tmp_path / "short.bin").write_bytes(b"ADL1")
    with pytest.raises(FileFormatError, match="bad magic"):
        read_vector(tmp_path / "short.bin")


def test_vector_truncated_payload(tmp_path, rng):
    path = tmp_path / "v.bin"
    write_vector(path, rng.standard_normal(5) + 0j)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FileFormatError, match="truncated"):
        read_vector(path)


def test_vector_csv_roundtrip_exact(tmp_path, rng):
    # %.17g carries the full 53-bit mantissa, so the text form is lossless
    x = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    x[0] = 1e-300 + 1j * np.pi
    path = tmp_path / "v.csv"
    write_vector_csv(path, x)
    assert np.array_equal(read_vector_csv(path), x)


def test_vector_csv_bad_columns(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("re,im\n1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError, match="2 columns"):
        read_vector_csv(path)


def test_matrix_binary_roundtrip_exact(tmp_path, rng):
    a = rng.standard_normal((6, 11)) + 1j * rng.standard_normal((6, 11))
    path = tmp_path / "a.bin"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def test_matrix_binary_errors(tmp_path, rng):
    with pytest.raises(FileFormatError, match="2-D"):
        write_matrix(tmp_path / "a.bin", np.zeros(3))
    path = tmp_path / "a.bin"
    write_matrix(path, rng.standard_normal((3, 4)) + 0j)
    raw = path.read_bytes()
    path.write_bytes(raw[:40])
    with pytest.raises(FileFormatError, match="truncated"):
        read_matrix(path)
    path.write_bytes(b"WRONGMAG" + raw[8:])
    with pytest.raises(FileFormatError, match="bad magic"):
        read_matrix(path)


# Every float64 class a file must carry unchanged: signed zeros, infinities,
# NaN, the smallest and largest subnormal, and the largest finite value.
SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308,
                           1.7976931348623157e308, -1.7976931348623157e308, 2.0])
# NaNs that the text form cannot carry (sign and payload): binary files only.
ODD_NANS = np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(np.float64)


def _pairs(values):
    """Every (re, im) pair of ``values``, as a complex128 vector."""
    re, im = np.meshgrid(values, values)
    x = np.empty(re.size, dtype=np.complex128)
    x.real, x.imag = re.ravel(), im.ravel()
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_binary_writers_lay_out_the_documented_bytes(tmp_path):
    # Built by hand, so a writer and a reader that agreed on another entry
    # order (row-major, say) would fail here.
    x = np.array([complex(1.5, -0.0), complex(np.nan, 2.0), complex(-3.0, 0.25)])
    want = b"ADL1VEC1" + struct.pack("<II", 3, 0)
    want += b"".join(struct.pack("<dd", v.real, v.imag) for v in x)
    write_vector(tmp_path / "v.bin", x)
    assert (tmp_path / "v.bin").read_bytes() == want
    a = np.array([[1.0, complex(-0.0, 1.0), 2.0], [np.nan, complex(3.0, -4.0), -5.0]])
    want = b"ADL1MAT1" + struct.pack("<II", 2, 3)
    want += b"".join(struct.pack("<dd", a[i, j].real, a[i, j].imag)
                     for j in range(3) for i in range(2))
    write_matrix(tmp_path / "a.bin", a)
    assert (tmp_path / "a.bin").read_bytes() == want


def _write_matrix_csv(path, a):
    rows = np.ascontiguousarray(a).view(np.float64)
    path.write_text("".join(",".join("%.17g" % v for v in row) + "\n" for row in rows))


@pytest.mark.parametrize("kind", ["vector", "vector-csv", "matrix", "matrix-csv"])
def test_files_round_trip_every_float_bit_for_bit(tmp_path, kind):
    binary = "csv" not in kind
    x = _pairs(np.concatenate([SPECIAL_VALUES, ODD_NANS]) if binary else SPECIAL_VALUES)
    path = tmp_path / ("data.bin" if binary else "data.csv")
    if kind.startswith("vector"):
        write, read = (write_vector, read_vector) if binary else (write_vector_csv, read_vector_csv)
        # n = 0 too: the csv file is then its header alone.
        for v in (x, x[:0]):
            write(path, v)
            back = read(path)
            assert back.dtype == np.complex128 and back.shape == v.shape
            assert np.array_equal(_bits(back), _bits(v))
        return
    x = x.reshape(-1, 4 if binary else 5)
    if kind == "matrix":
        write_matrix(path, x)
        back = read_matrix(path)
    else:
        _write_matrix_csv(path, x)
        back = read_matrix_csv(path)
    assert back.dtype == np.complex128 and back.shape == x.shape
    assert np.array_equal(_bits(back), _bits(x))


def _csv_cases():
    rng = np.random.default_rng(8)
    spikes = np.zeros(8192)
    spikes[rng.choice(8192, 245, replace=False)] = rng.standard_normal(245)
    neg_zero_imag = np.ones(8, dtype=np.complex128)
    neg_zero_imag.imag[5] = -0.0
    return {
        "empty": np.zeros(0),
        "one-real": np.array([-1.5]),
        "one-complex": np.array([0.1 - 3e-320j]),
        "real-8192": spikes + 1e-9 * rng.standard_normal(8192),
        "real-as-complex-8192": spikes + 0j,
        "complex-8192": rng.standard_normal(8192) + 1j * rng.standard_normal(8192),
        "special-real": SPECIAL_VALUES,
        "special-complex": _pairs(SPECIAL_VALUES),
        "negative-zero-imag": neg_zero_imag,
    }


@pytest.mark.parametrize("case", list(_csv_cases()))
def test_vector_csv_matches_per_entry_oracle(tmp_path, case):
    x = _csv_cases()[case]
    path = tmp_path / "v.csv"
    write_vector_csv(path, x)
    assert path.read_bytes() == vector_csv_text(x).encode("ascii")


def test_matrix_csv_interleaved(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0,2.0,3.5,-1.0\n0.0,0.5,2.0,0.25\n")
    a = read_matrix_csv(path)
    expect = np.array([[1.0 + 2.0j, 3.5 - 1.0j], [0.5j, 2.0 + 0.25j]])
    assert np.array_equal(a, expect)
    path.write_text("1.0,2.0,3.0\n")
    with pytest.raises(FileFormatError, match="odd column count"):
        read_matrix_csv(path)


def test_empty_matrix_csv_says_it_holds_no_rows(tmp_path, capsys):
    path = tmp_path / "a.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n# no data\n"):
            path.write_text(text)
            with pytest.raises(FileFormatError, match="holds no rows"):
                read_matrix_csv(path)
        cfg = tmp_path / "dense.json"
        cfg.write_text(json.dumps({"operator": {"kind": "dense", "file": str(path)},
                                   "b": str(tmp_path / "b.csv")}))
        out = tmp_path / "run"
        assert cli.main(["solve", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "holds no rows" in err[0]
    assert not out.exists()


# ---------------------------------------------------------------------------
# canonical config serialization


def test_canonical_json_is_key_order_invariant():
    a = {"beta": 2.0, "alpha": {"y": 1, "x": [3, 2]}}
    b = {"alpha": {"x": [3, 2], "y": 1}, "beta": 2.0}
    assert canonical_json(a) == canonical_json(b)
    assert canonical_json(a) == '{"alpha":{"x":[3,2],"y":1},"beta":2.0}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"tol": float("nan")})


def test_config_hash_stability_and_sensitivity():
    cfg = {"protocol": "race-bp", "seed": 7, "n": 128}
    h = config_hash(cfg)
    assert h == config_hash(dict(reversed(list(cfg.items()))))
    assert len(h) == 64 and set(h) <= set("0123456789abcdef")
    assert config_hash({**cfg, "seed": 8}) != h


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [("1", "x"), ("2", "y")])
    assert path.read_text() == "a,b\n1,x\n2,y\n"


# ---------------------------------------------------------------------------
# solve subcommand


def _bp_config(tmp_path, **blocks):
    """A bp config written to tmp_path; each keyword's keys are put over the
    block it names."""
    cfg = {
        "operator": {"kind": "orthgauss", "n": 64, "m": 24, "seed": 3},
        "b": {"synthetic": {"k": 5, "seed": 3}},
        "model": {"family": "bp"},
        "solver": {"name": "dadm", "tol": 1e-10, "max_iter": 2000},
        "seed": 3,
    }
    for name, keys in blocks.items():
        cfg[name] = dict(cfg[name], **keys)
    path = tmp_path / "solve_bp.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_solve_writes_artifacts_and_converges(tmp_path):
    path, cfg = _bp_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0

    x_bin = read_vector(out / "x.bin")
    assert read_vector_csv(out / "x.csv").tobytes() == x_bin.tobytes()

    summary = json.loads((out / "run.json").read_text(), parse_constant=_refuse_nan)
    assert set(summary) == {"solver", "model", "status", "iterations", "aat", "seconds",
                            "relres", "relerr_pct", "config", "config_hash"}
    assert summary["solver"] == "dadm"
    assert summary["model"] == "bp()"
    assert summary["status"] == "converged"
    assert summary["aat"] >= 2 * summary["iterations"]
    assert summary["seconds"] > 0.0
    assert summary["relres"] <= 1e-10
    # synthetic b carries the planted signal, so the error column is present
    assert summary["relerr_pct"] <= 1e-5
    # both score the returned x, as rebuilt from the recorded config
    A = cli._build_operator(cfg["operator"], cfg["seed"])
    b, x_true = cli._build_b(cfg["b"], A, cfg["seed"])
    assert summary["relerr_pct"] == relerr(x_bin, x_true)
    assert summary["relres"] == relres(A, b, x_bin)
    assert summary["config"] == cfg
    assert summary["config_hash"] == config_hash(cfg)


def test_solve_exit_two_when_iteration_cap_hits(tmp_path):
    path, _ = _bp_config(tmp_path, solver={"max_iter": 1})
    out = tmp_path / "capped"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 2
    summary = json.loads((out / "run.json").read_text())
    assert summary["status"] == "max_iter"
    assert summary["iterations"] == 1


def test_solve_from_matrix_and_vector_files(tmp_path, rng):
    g = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    q = np.linalg.qr(g.conj().T)[0].conj().T
    write_matrix(tmp_path / "A.bin", q)
    x = np.zeros(16, complex)
    x[[2, 9]] = [1.5, -0.7 + 0.3j]
    write_vector_csv(tmp_path / "b.csv", q @ x)
    cfg = {
        "operator": {"kind": "dense", "file": str(tmp_path / "A.bin"), "orthonormal_rows": True},
        "b": str(tmp_path / "b.csv"),
        "model": {"family": "qp", "mu": 0.01},
        "solver": {"name": "padm", "tol": 1e-8, "max_iter": 3000},
    }
    path = tmp_path / "solve_qp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text())
    assert summary["solver"] == "padm"
    assert summary["status"] == "converged"
    assert "relerr_pct" not in summary  # file-based b has no reference signal


def _sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_json_hashes_each_input_file(tmp_path, rng):
    # A config names its input files by path, so config_hash alone cannot
    # tell two runs on rewritten files apart; input_sha256 can.
    q = np.linalg.qr(rng.standard_normal((16, 8)))[0].T
    write_matrix(tmp_path / "A.bin", q)
    write_vector(tmp_path / "w.bin", np.full(16, 2.0))
    x = np.zeros(16)
    x[[2, 9]] = [1.5, -0.7]
    write_vector(tmp_path / "b.bin", q @ x)
    cfg = {"operator": {"kind": "dense", "file": str(tmp_path / "A.bin"),
                        "orthonormal_rows": True},
           "b": {"file": str(tmp_path / "b.bin")},
           "model": {"family": "qp", "mu": 0.01, "weights": str(tmp_path / "w.bin")}}
    path = tmp_path / "files.json"
    path.write_text(json.dumps(cfg))
    runs = []
    for name in ("first", "rewritten"):
        assert cli.main(["solve", str(path), "--out", str(tmp_path / name)]) in (0, 2)
        runs.append(json.loads((tmp_path / name / "run.json").read_text()))
        assert runs[-1]["input_sha256"] == {
            "b": _sha256_file(tmp_path / "b.bin"),
            "model.weights": _sha256_file(tmp_path / "w.bin"),
            "operator.file": _sha256_file(tmp_path / "A.bin")}
        x[[2, 9]] = [-0.4, 1.1]
        write_vector(tmp_path / "b.bin", q @ x)
    assert runs[0]["config_hash"] == runs[1]["config_hash"]
    assert runs[0]["input_sha256"]["b"] != runs[1]["input_sha256"]["b"]
    assert runs[0]["input_sha256"]["operator.file"] == runs[1]["input_sha256"]["operator.file"]


# run.json's top-level keys when b carries a planted signal
RUN_KEYS = {"solver", "model", "status", "iterations", "aat", "seconds", "relres", "relerr_pct",
            "config", "config_hash"}


def test_run_json_embeds_the_config_text_it_hashes(tmp_path):
    path, cfg = _bp_config(tmp_path)
    cfg["operator"] = {"kind": "wht", "n": 64, "rows": [9, 0, 33, 17, 4, 60, 25, 41, 12, 50],
                       "signs": [(-1.0) ** (j // 3) for j in range(64)]}
    path.write_text(json.dumps(cfg, indent=1))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) in (0, 2)
    text = (out / "run.json").read_text()
    run = json.loads(text, parse_constant=_refuse_nan)
    assert set(run) == RUN_KEYS
    assert run["config"] == cfg
    digest = hashlib.sha256(canonical_json(run["config"]).encode("utf-8")).hexdigest()
    assert digest == run["config_hash"] == config_hash(cfg)
    # one sorted top-level key per line; the config line holds the hashed text itself
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
    assert [json.loads("{%s}" % line.rstrip(",")) for line in lines[1:-1]] == [
        {key: run[key]} for key in sorted(run)]
    assert '  "config": %s,' % canonical_json(cfg) in lines


def _refuse_nan(token):
    raise ValueError("run.json holds %s" % token)


def test_solve_zero_data_writes_strict_json(tmp_path):
    # b = 0: the relative residual falls back to the absolute one, never NaN.
    write_vector(tmp_path / "b.bin", np.zeros(24))
    cfg = {
        "operator": {"kind": "orthgauss", "n": 64, "m": 24, "seed": 3},
        "b": str(tmp_path / "b.bin"),
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="b is zero"):
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text(), parse_constant=_refuse_nan)
    assert summary["relres"] == 0.0


def test_solve_error_paths(tmp_path, capsys):
    # baseline solvers are tied to the quadratic-penalty model
    path, _ = _bp_config(tmp_path, solver={"name": "ist"})
    rc = cli.main(["solve", str(path), "--out", str(tmp_path / "o1")])
    assert rc == 1
    assert "adl1: error (ConfigError)" in capsys.readouterr().err
    # ... and to its plain form: a nonnegative qp model is refused, not solved unconstrained
    path, _ = _bp_config(tmp_path, solver={"name": "fista"},
                         model={"family": "qp", "mu": 1e-3, "nonneg": True})
    rc = cli.main(["solve", str(path), "--out", str(tmp_path / "o2")])
    assert rc == 1
    assert "plain qp model only" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()

    # a step option the solver does not use is refused, not ignored
    qp = {"family": "qp", "mu": 1e-3}
    for i, blocks in enumerate(({"solver": {"tau": 1e9}},
                                {"solver": {"name": "fista", "beta": 7.0}, "model": qp},
                                {"solver": {"name": "ist", "gamma": 1.9}, "model": qp})):
        path, _ = _bp_config(tmp_path, **blocks)
        out = tmp_path / ("step%d" % i)
        assert cli.main(["solve", str(path), "--out", str(out)]) == 1
        assert "takes no" in capsys.readouterr().err
        assert not out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["solve", str(bad)]) == 1
    assert "adl1: error (JSONDecodeError)" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"operator": {"kind": "fft", "n": 8}, "b": "nope"}))
    assert cli.main(["solve", str(unknown)]) == 1
    assert "unknown operator kind" in capsys.readouterr().err

    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 1
    assert "adl1: error" in capsys.readouterr().err

    # synthetic noise is one NoiseSpec: sigma and a target SNR exclude each other
    both = tmp_path / "both.json"
    both.write_text(json.dumps({
        "operator": {"kind": "orthgauss", "n": 64, "m": 24, "seed": 3},
        "b": {"synthetic": {"k": 5, "seed": 3, "sigma": 0.01, "target_snr_db": 20}},
    }))
    assert cli.main(["solve", str(both), "--out", str(tmp_path / "o3")]) == 1
    assert "either sigma or target_snr_db" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


@pytest.mark.parametrize("blocks", [
    {"solver": {"tol": np.inf}}, {"solver": {"tol": np.nan}},
    {"model": {"family": "qp", "mu": np.inf}}, {"model": {"family": "bpdn", "delta": np.nan}},
    {"solver": {"beta": np.inf}},
], ids=["eps-inf", "eps-nan", "mu-inf", "delta-nan", "beta-inf"])
def test_solve_rejects_nonfinite_scalars(tmp_path, capsys, blocks):
    # json.dump writes these as Infinity and NaN, which json.load reads back.
    path, _ = _bp_config(tmp_path, **blocks)
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    assert "adl1: error (ConfigError)" in capsys.readouterr().err
    assert not out.exists()


# The flags that once set solve settings over the config; each now exits 1.
FORMER_SOLVE_FLAGS = ("--solver", "--model", "--mu", "--delta", "--nu", "--nonneg", "--weights",
                      "--beta", "--gamma", "--tau", "--eps", "--max-iter", "--stop", "--seed")


def test_usage_errors_exit_one_with_one_line(tmp_path, capsys):
    # Exit code 2 means the iteration cap, so argparse's own exit 2 must not
    # reach the shell: a usage error is one ConfigError line and exit 1.
    path, _ = _bp_config(tmp_path)
    out = tmp_path / "run"
    cases = [(["solve"], "config"), (["experiment", "race-qp", "--trials", "x"], "--trials"),
             (_race_args(out) + ["--timing"], "--timing")]
    cases += [(["solve", str(path), flag, "0.1", "--out", str(out)], flag)
              for flag in FORMER_SOLVE_FLAGS]
    for argv, named in cases:
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
        assert named in err[0]
        assert not out.exists()
    # -h still prints help and exits 0; solve's lists the config and --out alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "-h"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "config" in usage and "--out" in usage
    assert not [flag for flag in FORMER_SOLVE_FLAGS if flag in usage]


@pytest.mark.parametrize("where,key", [
    ((), "sed"), (("operator",), "colour"), (("b", "synthetic"), "sigmaa"),
    (("solver",), "max_itr"), (("b",), "fiel"), (("solver",), "eps"), ((), "out"),
], ids=["top", "operator", "synthetic", "solver", "b", "solver-eps", "top-out"])
def test_solve_rejects_unknown_config_keys(tmp_path, capsys, where, key):
    _, cfg = _bp_config(tmp_path)
    block = cfg
    for name in where:
        block = block[name]
    # an "out" key names an output directory that must not appear either
    named = tmp_path / "named"
    block[key] = str(named) if key == "out" else 0.5
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
    assert repr(key) in err[0]
    assert not out.exists() and not named.exists()


@pytest.mark.parametrize("block,key", [("model", "nonneg"), ("operator", "orthonormal_rows")])
def test_solve_refuses_string_booleans(tmp_path, capsys, rng, block, key):
    # The string "false" is truthy: read as a flag it would switch the option on.
    write_matrix(tmp_path / "A.bin", make_operator("orthgauss", 32, 12, rng).matrix)
    cfg = {"operator": {"kind": "dense", "file": str(tmp_path / "A.bin")},
           "b": {"synthetic": {"k": 2, "seed": 5}}, "model": {"family": "bp"}}
    cfg[block][key] = "false"
    path = tmp_path / "strbool.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
    assert repr(key) in err[0]
    assert not out.exists()


# Mistyped numbers, each in a wht 32x12 synthetic config, and the key named.
MISTYPED_NUMBERS = {
    "max_iter": ({"solver": {"max_iter": 2.9}}, "max_iter"),
    "max_iter-and-tol": ({"solver": {"max_iter": 2.9, "tol": "1e-12"}}, "max_iter"),
    "k": ({"b": {"synthetic": {"k": 2.7}}}, "k"),
    "rows": ({"operator": {"kind": "wht", "n": 32, "rows": [1.5, 2.9, 7]}}, "rows"),
    "mu": ({"model": {"family": "qp", "mu": "0.1"}}, "mu"),
    "seed": ({"seed": 2.5}, "seed"),
    "beta": ({"solver": {"beta": "2"}}, "beta"),
    "sigma": ({"b": {"synthetic": {"k": 2, "sigma": "0.1"}}}, "sigma"),
    "weights": ({"model": {"family": "bp", "weights": ["2", True] + [1] * 30}}, "weights"),
    "signs": ({"operator": {"kind": "wht", "n": 32, "rows": list(range(12)),
                            "signs": ["-1", True] + [1.0] * 30}}, "signs"),
    "weights-null": ({"model": {"family": "bp", "weights": None}}, "weights"),
    "signs-null": ({"operator": {"kind": "wht", "n": 32, "rows": list(range(12)),
                                 "signs": None}}, "signs"),
}


@pytest.mark.parametrize("case", list(MISTYPED_NUMBERS))
def test_solve_refuses_mistyped_numbers(tmp_path, capsys, case):
    override, key = MISTYPED_NUMBERS[case]
    cfg = dict({"operator": {"kind": "wht", "n": 32, "m": 12},
                "b": {"synthetic": {"k": 2}}}, **override)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
    assert repr(key) in err[0]
    assert not out.exists()


# Config blocks of a JSON type the block does not take, and the text the
# error names the block by. A list config replaces the whole config.
MISTYPED_BLOCKS = {
    "top-array": ([], "top-level config"),
    "operator-null": ({"operator": None}, "operator config"),
    "operator-string": ({"operator": "wht"}, "operator config"),
    "kind-array": ({"operator": {"kind": ["wht"], "n": 32, "m": 12}}, "operator kind"),
    "b-null": ({"b": None}, "b config"),
    "b-number": ({"b": 5}, "b config"),
    "synthetic-null": ({"b": {"synthetic": None}}, "b.synthetic config"),
    "model-string": ({"model": "qp"}, "model config"),
    "model-null": ({"model": None}, "model config"),
    "solver-array": ({"solver": []}, "solver config"),
    "solver-null": ({"solver": None}, "solver config"),
    "b-file-number": ({"b": {"file": 5}}, "b: 'file'"),
    "dense-file-number": ({"operator": {"kind": "dense", "file": 5}}, "dense operator: 'file'"),
}


@pytest.mark.parametrize("case", list(MISTYPED_BLOCKS))
def test_solve_refuses_mistyped_config_blocks(tmp_path, capsys, case):
    override, named = MISTYPED_BLOCKS[case]
    cfg = override if isinstance(override, list) else dict(
        {"operator": {"kind": "wht", "n": 32, "m": 12}, "b": {"synthetic": {"k": 2}}}, **override)
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
    assert named in err[0]
    assert not out.exists()


# Configs that lack a key their block needs, and the key named.
MISSING_KEYS = {
    "wht-n": ({"operator": {"kind": "wht", "m": 12}}, "n"),
    "dct-m": ({"operator": {"kind": "dct", "n": 32}}, "m"),
    "orthgauss-m": ({"operator": {"kind": "orthgauss", "n": 32}}, "m"),
    "dense-file": ({"operator": {"kind": "dense"}}, "file"),
    "synthetic-k": ({"b": {"synthetic": {"seed": 5}}}, "k"),
}


@pytest.mark.parametrize("case", list(MISSING_KEYS))
def test_solve_names_a_missing_config_key(tmp_path, capsys, case):
    override, key = MISSING_KEYS[case]
    cfg = dict({"operator": {"kind": "wht", "n": 32, "m": 12},
                "b": {"synthetic": {"k": 2}}}, **override)
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (ConfigError)")
    assert "config needs %r" % key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("solver,model", [("padm", {"family": "qp", "mu": 1e-3}),
                                          ("padm", {"family": "bp"}),
                                          ("dadm", {"family": "qp", "mu": 1e-3}),
                                          ("dadm", {"family": "bp"}),
                                          ("dadm", {"family": "l1l1", "nu": 0.5})],
                         ids=lambda v: v if isinstance(v, str) else v["family"])
def test_solve_refuses_wrong_length_weights(tmp_path, capsys, solver, model):
    # One weight for n = 32 columns: exit 1 before any sweep, naming both
    # lengths (for l1/l1 the user's, not the augmented operator's).
    cfg = {"operator": {"kind": "wht", "n": 32, "m": 12}, "b": {"synthetic": {"k": 2}},
           "model": dict(model, weights=[2.0]), "solver": {"name": solver}}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("adl1: error (DimensionMismatchError)")
    assert "length 1, but the operator has n = 32 " in err[0]
    assert not out.exists()


def test_solve_dense_nonorthonormal_matrix_with_default_solver(tmp_path, rng):
    # dadm takes its inexact y-step when A A* != I, with no switch to set.
    write_matrix(tmp_path / "A.bin", rng.standard_normal((12, 32)))
    cfg = {"operator": {"kind": "dense", "file": str(tmp_path / "A.bin")},
           "b": {"synthetic": {"k": 2, "seed": 5}}, "solver": {"max_iter": 300}}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) in (0, 2)
    summary = json.loads((out / "run.json").read_text())
    assert summary["solver"] == "dadm"
    assert summary["aat"] == 3 * summary["iterations"]


def test_solve_draws_partial_transforms_like_make_operator():
    drawn = cli._build_operator({"kind": "dct", "n": 40, "m": 12, "seed": 4}, 0)
    want = make_operator("dct", 40, 12, np.random.default_rng(4))
    assert type(drawn) is type(want)
    assert np.array_equal(drawn.rows, want.rows) and np.array_equal(drawn.signs, want.signs)
    rows = [3, 17, 60, 1]
    given = cli._build_operator({"kind": "wht", "n": 64, "rows": rows, "sign_seed": 9}, 0)
    assert np.array_equal(given.rows, rows)
    assert np.array_equal(given.signs, np.random.default_rng(9).choice([-1.0, 1.0], size=64))
    signs = -given.signs
    given = cli._build_operator({"kind": "wht", "n": 64, "rows": rows, "signs": signs.tolist()}, 0)
    assert np.array_equal(given.signs, signs)


@pytest.mark.parametrize("spec,message", [
    ({"kind": "wht", "n": 16, "m": 4, "seed": 1, "signs": [1.0] * 16}, "'signs' only applies"),
    ({"kind": "dct", "n": 16, "m": 4, "sign_seed": 2}, "'sign_seed' only applies"),
    ({"kind": "wht", "n": 16, "m": 9, "rows": [1, 5]}, "m=9 but 2 rows"),
    ({"kind": "dct", "n": 16, "rows": [1, 5], "signs": [1.0] * 16, "sign_seed": 2},
     "'signs' or 'sign_seed', not both"),
], ids=["signs", "sign_seed", "m-vs-rows", "signs-and-sign_seed"])
def test_solve_rejects_operator_keys_that_would_be_ignored(tmp_path, capsys, spec, message):
    cfg = {"operator": spec, "b": {"synthetic": {"k": 1, "seed": 5}}}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "adl1: error (ConfigError)" in err and message in err
    assert not out.exists()


def test_solve_accepts_m_that_matches_rows():
    A = cli._build_operator({"kind": "dct", "n": 16, "m": 2, "rows": [1, 5], "sign_seed": 3}, 0)
    assert A.m == 2 and np.array_equal(A.rows, [1, 5])


# ---------------------------------------------------------------------------
# experiment subcommand


def _race_args(out, seed="7", max_iter="120"):
    return ["experiment", "race-bp", "--desk", "--n", "128", "--trials", "2",
            "--max-iter", max_iter, "--seed", seed, "--out", str(out)]


def test_experiment_reruns_are_byte_identical(tmp_path, capsys):
    assert cli.main(_race_args(tmp_path / "a")) == 0
    assert cli.main(_race_args(tmp_path / "b")) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 2
    # every file but the measured wall times, the manifest included
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == ["manifest.json", "race-bp.csv", "race-bp_trials.csv", "timings.json"]
    assert sorted(os.listdir(tmp_path / "b")) == names
    for name in names[:-1]:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), name
        assert len(first) > 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert set(manifest) == {"config", "config_hash", "version", "files"}
    assert manifest["config_hash"] == config_hash(manifest["config"])
    assert manifest["files"] == {"means": "race-bp.csv", "trials": "race-bp_trials.csv"}
    assert manifest["config_hash"][:12] in out


def test_experiment_refuses_mixed_configs_in_one_dir(tmp_path, capsys):
    out = tmp_path / "exp"
    assert cli.main(_race_args(out)) == 0
    assert cli.main(_race_args(out, max_iter="130")) == 1
    err = capsys.readouterr().err
    assert "adl1: error (ConfigError)" in err
    assert "different config hash" in err
    # identical flags may re-land in the same directory
    assert cli.main(_race_args(out)) == 0


def test_experiment_unknown_protocol_lists_valid_ones(tmp_path, capsys):
    assert cli.main(["experiment", "warp", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    for name in ("model-choice", "err-vs-opt", "race-qp", "race-bpdn", "race-bp"):
        assert name in err


def test_experiment_err_vs_opt_refuses_fixed_knobs(tmp_path, capsys):
    # err-vs-opt runs one dadm solve per case: a trial count is refused, not dropped
    out = tmp_path / "eo"
    argv = ["experiment", "err-vs-opt", "--n", "100", "--trials", "3", "--out", str(out)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "adl1: error (ConfigError)" in err and "trials" in err
    assert not out.exists()


def test_experiment_csv_headers_and_formats(tmp_path):
    out = tmp_path / "exp"
    assert cli.main(_race_args(out)) == 0
    means = (out / "race-bp.csv").read_text().splitlines()
    trials = (out / "race-bp_trials.csv").read_text().splitlines()
    assert means[0] == "cell,solver,iter,aat,relerr_pct,res,seconds"
    assert trials[0] == "cell,solver,trial,iter,aat,relerr_pct,res,seconds"
    # 5 sampling cells, one mean row each; two trials apiece
    assert len(means) == 6
    assert len(trials) == 11
    cells = [ln.split(",")[0] for ln in means[1:]]
    assert cells == ["mn0.3_km0.1", "mn0.3_km0.2", "mn0.2_km0.1",
                     "mn0.2_km0.2", "mn0.1_km0.1"]
    row = trials[1].split(",")
    assert row[1] == "dadm" and row[2] == "0"
    int(row[3]), int(row[4])  # iteration and product counts stay integral
    assert float(row[5]) >= 0.0 and row[7] == "0.000000"
    if os.path.exists(out / "timings.json"):
        timings = json.loads((out / "timings.json").read_text())
        assert all(r["seconds"] >= 0.0 for r in timings["rows"])
