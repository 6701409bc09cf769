"""File format round-trips and command line behavior (in-process main calls)."""
import argparse
import gc
import json
import multiprocessing
import os
import re
import signal
import sys
import time

import numpy as np
import pytest

import tvdn.cuts
import tvdn.tvsolve
from tvdn._pool import parallel_map, worker_count
from tvdn.bench import (ExperimentConfig, bench_mse, bench_seg,
                        run_lambda_samples)
from tvdn.cli import build_parser, main
from tvdn.coeffs import default_coefficients, load_coefficients
from tvdn.grid import LatticeShape, Signal
from tvdn.io import (SCHEMA_VERSION, read_csv_column, read_json_report,
                     read_pgm, read_signal_csv, write_csv_column,
                     write_csv_rows, write_json_report, write_pgm,
                     write_signal_csv)
from tvdn.lambda_stat import sample_lambda
from tvdn.risk import default_lambda_grid, risk_curve
from tvdn.selection import estimate_sigma, universal_threshold
from tvdn.tvsolve import lambda_max, tv_denoise


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens that json.dumps
    writes for non-finite floats and that strict JSON readers reject."""
    def refuse(token):
        raise ValueError("%s is not valid JSON" % token)
    return json.loads(text, parse_constant=refuse)


def _payload(out):
    """The JSON payload a command prints as its last line of stdout."""
    return _strict_json(out.strip().splitlines()[-1])


def _report(path):
    with open(path) as fh:
        return _strict_json(fh.read())


# ---------------------------------------------------------------- CSV


def test_csv_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=57) * 10.0 ** rng.integers(-8, 8, size=57)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, Signal.from_array(vals))
    with open(path) as fh:
        assert fh.readline().strip() == "value"
    back = read_signal_csv(path)
    assert back.shape.sizes == (57,)
    np.testing.assert_array_equal(back.values, vals)  # repr round-trips exactly


def test_csv_header_optional_and_checked(tmp_path):
    path = tmp_path / "col.csv"
    path.write_text("1.5\n2.5\n")
    np.testing.assert_array_equal(read_csv_column(path, header="value"),
                                  [1.5, 2.5])
    path.write_text("wrong\n1.5\n")
    with pytest.raises(ValueError):
        read_csv_column(path, header="value")


def test_csv_malformed_and_empty(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\noops\n")
    with pytest.raises(ValueError):
        read_csv_column(path, header="value")
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv_column(path)
    path.write_text("value\n")
    with pytest.raises(ValueError, match="no values"):
        read_signal_csv(path)


def test_csv_writer_rejects_2d(tmp_path):
    with pytest.raises(ValueError):
        write_signal_csv(tmp_path / "x.csv", Signal.from_array(np.zeros((2, 3))))


def test_csv_rows(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv_rows(path, ("lambda", "value"), [(0.5, 1.25), (2.0, 0.125)])
    text = path.read_text()
    assert text.splitlines()[0] == "lambda,value"
    np.testing.assert_array_equal(read_csv_column(path, header="lambda"),
                                  [0.5, 2.0])


def test_csv_rows_read_back_numpy_floats(tmp_path):
    # a numpy real is written as its float's repr: read back, it is the
    # value that was written
    path = tmp_path / "rows.csv"
    values = [np.float64(1.5), np.float32(0.1), np.float64(1 / 3)]
    write_csv_rows(path, ("value",), [(v,) for v in values])
    back = read_csv_column(path, header="value")
    assert back.tolist() == [float(v) for v in values]


# ---------------------------------------------------------------- PGM


def test_pgm_p5_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(9, 13)).astype(float)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a, Signal.from_array(img), maxval=255, binary=True)
    y, maxval, binary = read_pgm(a)
    assert (maxval, binary) == (255, True)
    assert y.shape.sizes == (9, 13)
    np.testing.assert_array_equal(y.values.reshape(9, 13), img)
    write_pgm(b, y, maxval=255, binary=True)
    assert _read_bytes(a) == _read_bytes(b)


def test_pgm_p2_roundtrip_and_comments(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 100, size=(4, 6)).astype(float)
    path = tmp_path / "a.pgm"
    write_pgm(path, Signal.from_array(img), maxval=99, binary=False)
    y, maxval, binary = read_pgm(path)
    assert (maxval, binary) == (99, False)
    np.testing.assert_array_equal(y.values.reshape(4, 6), img)
    commented = tmp_path / "c.pgm"
    commented.write_bytes(b"P2\n# made by hand\n2 2\n# and a note\n9\n1 2\n3 4\n")
    y2, maxval2, _ = read_pgm(commented)
    assert maxval2 == 9
    np.testing.assert_array_equal(y2.values, [1, 2, 3, 4])


def test_pgm_16bit_big_endian(tmp_path):
    img = np.array([[0, 300], [65535, 1]], dtype=float)
    path = tmp_path / "wide.pgm"
    write_pgm(path, Signal.from_array(img), maxval=65535, binary=True)
    raw = _read_bytes(path)
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 2 * 4  # two bytes per sample
    assert raw[len(header):len(header) + 2] == b"\x00\x00"
    assert raw[len(header) + 2:len(header) + 4] == (300).to_bytes(2, "big")
    y, maxval, _ = read_pgm(path)
    assert maxval == 65535
    np.testing.assert_array_equal(y.values.reshape(2, 2), img)


def test_pgm_write_clips_and_rounds(tmp_path):
    img = np.array([[-4.0, 12.6], [255.4, 300.0]])
    path = tmp_path / "clip.pgm"
    write_pgm(path, Signal.from_array(img), maxval=255)
    y, _, _ = read_pgm(path)
    np.testing.assert_array_equal(y.values.reshape(2, 2), [[0, 13], [255, 255]])


def test_pgm_errors(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P6\n2 2\n255\n....")
    with pytest.raises(ValueError):
        read_pgm(p)
    for data in (b"P5\n2 2\n255\n\x00\x01",  # raster too short
                 b"P5\n2 2\n65535\n" + bytes(7)):
        p.write_bytes(data)
        with pytest.raises(ValueError, match="truncated PGM raster"):
            read_pgm(p)
    for data in (b"P2\n2 2\n", b"P5\n2 2\n"):
        p.write_bytes(data)
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm(p)
    p.write_bytes(b"P2\n2 2\n10\n1 2 3 44\n")  # sample over maxval
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P2\n3 2\n255\n1 -5 3\n4 5 6\n")  # sample below 0
    with pytest.raises(ValueError, match="outside 0..255"):
        read_pgm(p)
    p.write_bytes(b"P2\n0 2\n10\n\n")
    with pytest.raises(ValueError):
        read_pgm(p)
    with pytest.raises(ValueError):
        write_pgm(p, Signal.from_array(np.zeros(4)))
    with pytest.raises(ValueError):
        write_pgm(p, Signal.from_array(np.zeros((2, 2))), maxval=0)


# ---------------------------------------------------------------- JSON


def test_json_report_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    payload = {"b": 2, "a": [1.5, "x"], "nested": {"z": 1, "y": 0}}
    write_json_report(path, payload)
    back = read_json_report(path)
    assert back["schema_version"] == SCHEMA_VERSION == 1
    assert back["a"] == [1.5, "x"] and back["b"] == 2
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"schema_version"')
    write_json_report(tmp_path / "r2.json", payload)
    assert _read_bytes(path) == _read_bytes(tmp_path / "r2.json")


# ---------------------------------------------------------------- CLI


def test_cli_gen_then_adaptive_denoise(tmp_path, capsys):
    noisy = str(tmp_path / "y.csv")
    clean = str(tmp_path / "f.csv")
    assert main(["gen", "--function", "blocks", "--sizes", "200",
                 "--sigma", "0.5", "--seed", "11",
                 "--out", noisy, "--truth-out", clean]) == 0
    out = str(tmp_path / "fhat.csv")
    assert main(["denoise", "--in", noisy, "--method", "adaptive",
                 "--sigma-known", "0.5", "--out", out]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["method"] == "adaptive"
    assert payload["converged"] is True
    assert payload["sizes"] == [200]
    assert 0 < payload["lambda2"] <= payload["lambda1"]
    report = _report(out + ".json")
    assert report["schema_version"] == 1
    assert report["lambda2"] == payload["lambda2"]
    est = read_signal_csv(out)
    truth = read_signal_csv(clean)
    y = read_signal_csv(noisy)
    # denoising moved the data toward the truth
    assert np.mean((est.values - truth.values) ** 2) < \
        np.mean((y.values - truth.values) ** 2)


def test_cli_denoise_lambda_zero_is_identity(tmp_path, capsys):
    noisy = str(tmp_path / "y.csv")
    assert main(["gen", "--sizes", "80", "--seed", "4", "--out", noisy]) == 0
    out = str(tmp_path / "same.csv")
    assert main(["denoise", "--in", noisy, "--lambda", "0", "--out", out]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["method"] == "fixed"
    assert _read_bytes(noisy) == _read_bytes(out)


def test_cli_denoise_fixed_and_oracle_read_no_sigma(tmp_path, capsys):
    # two samples have one edge, too few to estimate a noise level, but a
    # fixed-lambda or oracle fit reads none and reports sigma_used null
    path = str(tmp_path / "two.csv")
    write_csv_column(path, np.array([0.0, 3.0]), "value")
    for argv in (["--lambda", "0.5"], ["--method", "oracle", "--truth", path]):
        assert main(["denoise", "--in", path] + argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _payload(captured.out)["sigma_used"] is None


def test_cli_denoise_adaptive_constant_input(tmp_path, capsys):
    path = str(tmp_path / "const.csv")
    write_csv_column(path, np.full(60, 2.0), "value")
    assert main(["denoise", "--in", path, "--method", "adaptive",
                 "--sigma-known", "1.0"]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["count1"] == 1
    assert payload["ncc"] == 1
    assert payload["lambda2"] == payload["lambda1"]


def test_cli_bad_inputs_exit_2(tmp_path, capsys):
    noisy = str(tmp_path / "y.csv")
    main(["gen", "--sizes", "50", "--out", noisy])
    assert main(["denoise", "--in", noisy, "--method", "oracle"]) == 2
    assert main(["denoise", "--in", noisy, "--method", "fixed"]) == 2
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write("value\n1.0\nnot-a-number\n")
    assert main(["denoise", "--in", bad, "--lambda", "1"]) == 2
    assert main(["denoise", "--in", str(tmp_path / "missing.csv"),
                 "--lambda", "1"]) == 2
    assert main(["gen", "--function", "bogus", "--sizes", "50",
                 "--out", str(tmp_path / "g.csv")]) == 2
    assert main(["gen", "--sizes", "50"]) == 2  # no --out
    capsys.readouterr()
    short, negative = str(tmp_path / "short.csv"), str(tmp_path / "neg.pgm")
    main(["gen", "--sizes", "40", "--out", short])
    with open(negative, "w") as fh:
        fh.write("P2\n3 2\n255\n1 -5 3\n4 5 6\n")
    capsys.readouterr()
    for argv, message in (
            (["denoise", "--in", noisy, "--lambda", "1", "--truth", short],
             "truth shape does not match input"),
            (["denoise", "--in", negative, "--lambda", "1"],
             "PGM sample outside 0..255"),
            (["gen", "--sizes", "50,60", "--out", noisy],
             "gen expects a single size"),
            (["lambda-sample", "--dim", "1", "--sizes", "8,16",
              "--reps", "10"], "lambda-sample needs --out (a directory)"),
            (["lambda-fit", "--in", str(tmp_path), "--out", noisy],
             "No such file or directory: %r"
             % os.path.join(str(tmp_path), "meta.json"))):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    for argv in (["gen", "--sizes", "5o"], ["bench-mse", "--reps", "2,x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expects comma-separated integers" in capsys.readouterr().err


def test_cli_pgm_denoise(tmp_path, capsys):
    rng = np.random.default_rng(7)
    img = np.full((12, 12), 60.0)
    img[3:9, 3:9] = 160.0
    noisy = np.clip(img + 8.0 * rng.standard_normal((12, 12)), 0, 255)
    src = str(tmp_path / "img.pgm")
    write_pgm(src, Signal.from_array(noisy), maxval=255)
    out = str(tmp_path / "img_out.pgm")
    assert main(["denoise", "--in", src, "--method", "universal",
                 "--sigma-known", "8.0", "--out", out]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["sizes"] == [12, 12]
    assert payload["converged"] is True
    y, maxval, binary = read_pgm(out)
    assert y.shape.sizes == (12, 12) and maxval == 255 and binary
    # smoothing shrank the intensity spread inside each block
    assert np.std(y.values.reshape(12, 12)[0:3, :]) < \
        np.std(Signal.from_array(noisy).values.reshape(12, 12)[0:3, :])


def test_cli_nan_lambda_exits_2(tmp_path, capsys):
    # a NaN threshold is bad input on a path and on a lattice: no fit, no
    # payload, no output file
    csv = str(tmp_path / "y.csv")
    main(["gen", "--sizes", "30", "--out", csv])
    pgm = str(tmp_path / "y.pgm")
    img = np.random.default_rng(4).integers(0, 256, (6, 6)).astype(float)
    write_pgm(pgm, Signal.from_array(img), maxval=255)
    capsys.readouterr()
    for src in (csv, pgm):
        out = src + ".out"
        assert main(["denoise", "--in", src, "--lambda", "nan",
                     "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda must be finite and nonnegative" in captured.err
        assert not os.path.exists(out)


def test_cli_bad_noise_level_exits_2(tmp_path, capsys):
    # a NaN, infinite or negative --sigma-known is bad input in every
    # method, even one that does not read it (a fixed lambda, the oracle):
    # no payload and no output file
    csv = str(tmp_path / "y.csv")
    main(["gen", "--sizes", "30", "--out", csv])
    pgm = str(tmp_path / "y.pgm")
    img = np.random.default_rng(4).integers(0, 256, (6, 6)).astype(float)
    write_pgm(pgm, Signal.from_array(img), maxval=255)
    capsys.readouterr()
    for src in (csv, pgm):
        out = src + ".out"
        for sigma in ("nan", "inf", "-1"):
            for argv in (["denoise", "--method", "sure"],
                         ["denoise", "--method", "universal"],
                         ["denoise", "--method", "adaptive"],
                         ["denoise", "--lambda", "1"],
                         ["denoise", "--method", "oracle", "--truth", src],
                         ["risk-curve"],
                         ["risk-curve", "--method", "oracle",
                          "--truth", src]):
                assert main(argv + ["--in", src, "--sigma-known", sigma,
                                    "--out", out]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "sigma must be finite and nonnegative" in captured.err
                assert not os.path.exists(out)


def test_cli_bad_noise_level_exits_2_before_any_work(tmp_path, capsys,
                                                     monkeypatch):
    # gen --sigma and the benchmarks' --sigma-known refuse a NaN, infinite
    # or negative noise level before a signal is drawn or the pool starts
    import tvdn.bench
    pooled = []
    monkeypatch.setattr(tvdn.bench, "parallel_map",
                        lambda fn, items: pooled.append(fn) or [])
    out = str(tmp_path / "out")
    for sigma in ("nan", "inf", "-inf", "-1"):
        # "--flag=value", as a value starting with "-" would read as a flag
        for argv in (["gen", "--sizes", "30", "--sigma=" + sigma],
                     ["bench-mse", "--functions", "blocks", "--sizes", "50",
                      "--reps", "2", "--sigma-known=" + sigma],
                     ["bench-seg", "--sizes", "50", "--reps", "2",
                      "--sigma-known=" + sigma]):
            assert main(argv + ["--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "sigma must be finite and nonnegative" in captured.err
            assert not os.path.exists(out)
    assert pooled == []


def test_cli_explicit_grid_computes_no_lambda_max(tmp_path, capsys,
                                                  monkeypatch):
    # Lambda (a full solve on a lattice) only scales the default grid and
    # --grid COUNT; LO,HI,COUNT never needs it
    import tvdn.cli
    calls = []

    def counted(y):
        calls.append(y.shape.sizes)
        return sample_lambda(y)

    monkeypatch.setattr(tvdn.cli, "sample_lambda", counted)
    pgm = str(tmp_path / "y.pgm")
    img = np.random.default_rng(5).integers(0, 256, (8, 8)).astype(float)
    write_pgm(pgm, Signal.from_array(img), maxval=255)
    for argv in (["denoise", "--method", "sure"],
                 ["denoise", "--method", "oracle", "--truth", pgm],
                 ["risk-curve"]):
        assert main(argv + ["--in", pgm, "--grid", "0.5,6,6"]) == 0
        assert calls == []
        assert main(argv + ["--in", pgm, "--grid", "6"]) == 0
        assert calls == [(8, 8)]
        calls.clear()
    capsys.readouterr()


def test_cli_empty_grid_exits_2_before_lambda_max(tmp_path, capsys,
                                                 monkeypatch):
    # a grid COUNT below 1 is refused before Lambda (a full solve on a
    # lattice) is computed, in either --grid form
    import tvdn.cli
    calls = []
    monkeypatch.setattr(tvdn.cli, "sample_lambda",
                        lambda y: calls.append(y.shape.sizes))
    pgm = str(tmp_path / "y.pgm")
    img = np.random.default_rng(5).integers(0, 256, (8, 8)).astype(float)
    write_pgm(pgm, Signal.from_array(img), maxval=255)
    for argv in (["denoise", "--method", "sure"],
                 ["denoise", "--method", "oracle", "--truth", pgm],
                 ["risk-curve"]):
        for grid in ("0", "-2", "0.5,6,0", "0.5,6,-2"):
            assert main(argv + ["--in", pgm, "--grid", grid]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--grid COUNT must be at least 1" in captured.err
    assert calls == []


def _refused_before_reading(capsys, argv, message):
    # the input does not exist, so the option's own message shows that it
    # was refused before any input was read or any solve ran
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_denoise_refuses_lambda_without_fixed(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for method in ("universal", "adaptive", "sure", "oracle"):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--method", method,
                     "--lambda", "2", "--truth", missing],
            "--lambda is read only by --method fixed")
    # --lambda alone still implies --method fixed, and --truth feeds loss
    noisy, clean = str(tmp_path / "y.csv"), str(tmp_path / "f.csv")
    main(["gen", "--sizes", "60", "--out", noisy, "--truth-out", clean])
    capsys.readouterr()
    assert main(["denoise", "--in", noisy, "--lambda", "2",
                 "--truth", clean]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["method"] == "fixed" and "loss" in payload


def test_cli_denoise_refuses_grid_without_a_curve(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for argv in (["--method", "fixed", "--lambda", "1"], ["--lambda", "1"],
                 ["--method", "universal"], ["--method", "adaptive"], []):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--grid", "5"] + argv,
            "--grid is read only by --method sure and oracle")


def test_cli_denoise_refuses_coeffs_without_a_universal_rule(tmp_path,
                                                             capsys):
    # the fit file is missing too, so its own message would show that it
    # was loaded
    missing = str(tmp_path / "missing.csv")
    coeffs = str(tmp_path / "missing.json")
    for argv in (["--method", "fixed", "--lambda", "1"], ["--lambda", "1"],
                 ["--method", "sure", "--grid", "1,10,3"],
                 ["--method", "oracle", "--truth", missing]):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--coeffs", coeffs] + argv,
            "--coeffs is read only by --method universal and adaptive")


def test_cli_denoise_refuses_sigma_without_a_sigma_rule(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for argv in (["--method", "fixed", "--lambda", "2"], ["--lambda", "2"],
                 ["--method", "oracle", "--truth", missing]):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--sigma-known", "5"] + argv,
            "--sigma-known is read only by --method universal, adaptive "
            "and sure")


def test_cli_risk_curve_refuses_sigma_with_oracle(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    _refused_before_reading(
        capsys, ["risk-curve", "--in", missing, "--method", "oracle",
                 "--truth", missing, "--sigma-known", "5"],
        "--sigma-known is read only by --method sure")


def test_cli_risk_curve_refuses_truth_with_sure(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for argv in (["--method", "sure"], []):
        _refused_before_reading(
            capsys, ["risk-curve", "--in", missing, "--truth", missing] + argv,
            "--truth is read only by --method oracle")


# the methods of denoise and risk-curve that read each option other than
# --in, --out and --method, as README states them
READERS = {
    "denoise": {"--lambda": "fixed",
                "--sigma-known": "universal, adaptive and sure",
                "--coeffs": "universal and adaptive",
                "--grid": "sure and oracle",
                "--truth": "fixed, universal, adaptive, sure and oracle"},
    "risk-curve": {"--sigma-known": "sure",
                   "--grid": "sure and oracle",
                   "--truth": "oracle"},
}


def test_cli_methods_refuse_exactly_the_options_they_do_not_read(tmp_path,
                                                                  capsys):
    # each method of denoise and risk-curve is given each option of its
    # command in turn: one it does not read is refused before any input is
    # read, naming the methods that read it; one it reads gets as far as
    # reading the input, which is missing
    missing = str(tmp_path / "missing.csv")
    c = default_coefficients(2)
    fit = str(tmp_path / "fit.json")
    write_json_report(fit, {"dim": 2, "a_mu": c.a_mu, "b_mu": c.b_mu,
                            "a_beta": c.a_beta, "b_beta": c.b_beta})
    values = {"--lambda": "1", "--sigma-known": "1", "--coeffs": fit,
              "--grid": "3", "--truth": str(tmp_path / "missing_truth.csv")}
    needs = {"fixed": "--lambda", "oracle": "--truth"}
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, readers in READERS.items():
        actions = commands.choices[command]._actions
        (method_action,) = [a for a in actions if a.dest == "method"]
        flags = [a.option_strings[-1] for a in actions if a.option_strings
                 and a.option_strings[-1] not in ("--help", "--in", "--out",
                                                  "--method")]
        assert sorted(flags) == sorted(readers)
        for method in method_action.choices:
            base = ["--method", method]
            if method in needs:
                base += [needs[method], values[needs[method]]]
            for flag in flags:
                argv = [command, "--in", missing] + base
                if flag not in base:
                    argv += [flag, values[flag]]
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                if method in re.split(", | and ", readers[flag]):
                    assert missing in captured.err
                else:
                    assert ("%s is read only by --method %s"
                            % (flag, readers[flag])) in captured.err


def test_cli_refuses_bad_values_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    # inf and an overflowing 1e400 too: json.dumps would print Infinity
    for lam in ("nan", "-1", "inf", "1e400"):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--lambda", lam],
            "lambda must be finite and nonnegative")
    for grid, message in (("1,2", "--grid expects COUNT or LO,HI,COUNT"),
                          ("1.5", "--grid expects COUNT or LO,HI,COUNT"),
                          ("a,2,3", "--grid expects COUNT or LO,HI,COUNT"),
                          ("0.5,inf,4", "--grid bounds must be finite"),
                          ("4,2,3", "--grid bounds must satisfy")):
        for argv in (["denoise", "--method", "sure"],
                     ["denoise", "--method", "oracle", "--truth", missing],
                     ["risk-curve"]):
            _refused_before_reading(
                capsys, argv + ["--in", missing, "--grid", grid], message)
    _refused_before_reading(
        capsys, ["risk-curve", "--in", missing, "--method", "oracle"],
        "--method oracle needs --truth")


def test_cli_drivers_refuse_bad_values_before_the_pool(tmp_path, capsys,
                                                       monkeypatch):
    # a bad tolerance, signal ratio, size or alpha (one whose quantile
    # z_{1-alpha/2} is infinite), a repeated size and replicate counts that
    # fit neither one count nor one per size of the sizes given or
    # defaulted are refused before the pool starts, in the words
    # of the value at fault
    import tvdn.bench
    pooled = []
    monkeypatch.setattr(tvdn.bench, "parallel_map",
                        lambda fn, items: pooled.append(fn) or [])
    out = str(tmp_path / "out")
    for argv, message in (
            (["lambda-sample", "--dim", "2", "--sizes", "8", "--reps", "10",
              "--tol", "nan"], "tol must be positive and finite"),
            (["bench-mse", "--snr", "nan"], "snr must be positive and finite"),
            (["bench-mse", "--functions", "blocks", "--sizes", "5"],
             "n must be at least 8"),
            (["bench-seg", "--sizes", "3"], "more levels than samples"),
            (["gen", "--snr", "inf"], "snr must be positive and finite"),
            (["bench-mse", "--functions", "blocks", "--reps", "1,2"],
             "one count per size; got 2 for sizes (100, 1000, 10000)"),
            (["bench-seg", "--reps", "1,2"], "got 2 for sizes (100,)"),
            (["bench-mse", "--functions", "blocks", "--sizes", "100,100"],
             "sizes must be distinct"),
            (["lambda-sample", "--dim", "2", "--sizes", "8,8", "--reps", "10",
              "--seed", "1"], "sizes must be distinct"),
            (["lambda-sample", "--dim", "4", "--sizes", "8", "--reps", "10"],
             "--dim must be 1, 2 or 3"),
            (["lambda-sample", "--dim", "1", "--sizes", "20,30", "--reps", "5"],
             "--reps must be at least 10"),
            (["lambda-sample", "--dim", "1", "--sizes", "1,2", "--reps", "10"],
             "every --sizes side must be at least 2"),
            (["lambda-sample", "--dim", "1", "--sizes", "", "--reps", "10"],
             "--sizes is required"),
            (["bench-mse", "--functions", "blocks,blocks", "--sizes", "100",
              "--reps", "2"], "functions must be distinct"),
            (["bench-seg", "--functions", "staircase,staircase"],
             "functions must be distinct"),
            (["bench-seg", "--alpha", "1e-17", "--sizes", "10", "--reps", "1"],
             "alpha must lie in (2**-53, 1/2)")):
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not os.path.exists(out)
    assert pooled == []


def test_cli_bad_lambda_sample_tol_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TVDN_THREADS", "1")
    for dim in ("1", "2"):
        for tol in ("nan", "inf", "0"):
            assert main(["lambda-sample", "--dim", dim, "--sizes", "8",
                         "--reps", "10", "--tol", tol,
                         "--out", str(tmp_path / "draws")]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "tol must be positive and finite" in captured.err
            assert not os.path.exists(tmp_path / "draws")


def test_cli_uncertified_solve_exits_3(tmp_path, capsys, monkeypatch):
    # a lattice fit the solver cannot certify is an error, never an output
    import tvdn.tvsolve
    rng = np.random.default_rng(9)
    noisy = np.clip(128 + 20 * rng.standard_normal((16, 16)), 0, 255)
    src = str(tmp_path / "n.pgm")
    out = str(tmp_path / "out.pgm")
    write_pgm(src, Signal.from_array(noisy), maxval=255)
    assert main(["denoise", "--in", src, "--lambda", "5"]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["converged"] is True and payload["iterations"] > 0
    monkeypatch.setattr(tvdn.tvsolve, "_CERTIFIED_TOL", -1.0)
    assert main(["denoise", "--in", src, "--lambda", "5", "--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "solver error" in captured.err
    assert not os.path.exists(out)


def test_cli_rerun_byte_identical(tmp_path, capsys):
    noisy = str(tmp_path / "y.csv")
    main(["gen", "--sizes", "150", "--sigma", "0.7", "--seed", "21",
          "--out", noisy])
    outs = []
    for tag in ("one", "two"):
        out = str(tmp_path / ("%s.csv" % tag))
        assert main(["denoise", "--in", noisy, "--method", "adaptive",
                     "--sigma-known", "0.7", "--out", out]) == 0
        outs.append(out)
    capsys.readouterr()
    assert _read_bytes(outs[0]) == _read_bytes(outs[1])
    j0 = _report(outs[0] + ".json")
    j1 = _report(outs[1] + ".json")
    assert j0 == j1


def test_cli_bench_commands_print_and_write_the_table(tmp_path, capsys):
    # a tiny bench-mse and bench-seg run: the printed rows are the
    # library's table, the JSON report holds it with the run's keys, and a
    # rerun writes the same bytes
    for argv, table, keys in (
            (["bench-mse", "--functions", "blocks,zero", "--sizes", "40",
              "--reps", "2", "--seed", "3"],
             bench_mse(ExperimentConfig("mse_1d", functions=("blocks", "zero"),
                                        sizes=(40,), reps=(2,), seed=3)),
             {"experiment": "mse_1d", "seed": 3}),
            (["bench-seg", "--sizes", "40", "--reps", "2", "--seed", "3"],
             bench_seg(ExperimentConfig("seg_1d", sizes=(40,), reps=(2,),
                                        seed=3)),
             {"experiment": "seg_1d", "seed": 3, "alpha": 0.05})):
        outs = [str(tmp_path / (argv[0] + tag + ".json"))
                for tag in ("one", "two")]
        for out in outs:
            assert main(argv + ["--out", out]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split() for line in lines] == [
                [r["function"], str(r["size"]), r["method"], r["metric"],
                 "%.4f" % r["value"], "+-", "%.4f" % r["se"]]
                for r in table.rows]
        report = _report(outs[0])
        assert report.pop("rows") == table.rows
        assert report == dict(keys, schema_version=SCHEMA_VERSION)
        assert _read_bytes(outs[0]) == _read_bytes(outs[1])


def test_cli_lambda_sample_and_fit(tmp_path, capsys):
    samp = str(tmp_path / "draws")
    assert main(["lambda-sample", "--dim", "1", "--sizes", "50,100",
                 "--reps", "60", "--seed", "3", "--out", samp]) == 0
    assert sorted(os.listdir(samp)) == ["lambda_d1_n100.csv",
                                        "lambda_d1_n50.csv", "meta.json"]
    draws = read_csv_column(os.path.join(samp, "lambda_d1_n50.csv"),
                            header="lambda")
    assert draws.size == 60 and np.all(draws > 0)
    fit = str(tmp_path / "fit.json")
    assert main(["lambda-fit", "--in", samp, "--out", fit]) == 0
    capsys.readouterr()
    payload = _report(fit)
    for key in ("dim", "n_values", "mu", "beta", "a_mu", "b_mu",
                "a_beta", "b_beta", "reps", "seed", "gev"):
        assert key in payload
    assert payload["dim"] == 1 and payload["n_values"] == [50, 100]
    assert payload["reps"] == 60 and payload["seed"] == 3
    assert len(payload["mu"]) == len(payload["beta"]) == 2
    # the fit file feeds straight back into the coefficient loader
    coeffs = load_coefficients(fit)
    assert coeffs.dim == 1
    assert coeffs.a_mu == payload["a_mu"]
    # QQ tables against the fitted Gumbel stay close to the diagonal
    for n in (50, 100):
        qq = str(tmp_path / ("fit_qq_n%d.csv" % n))
        with open(qq) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "empirical,fitted"
        emp = np.array([float(l.split(",")[0]) for l in lines[1:]])
        fitted = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert emp.size == 60
        assert np.corrcoef(emp, fitted)[0, 1] > 0.97


def test_cli_lambda_fit_needs_two_sizes(tmp_path, capsys):
    samp = str(tmp_path / "draws")
    assert main(["lambda-sample", "--dim", "1", "--sizes", "40",
                 "--reps", "10", "--seed", "0", "--out", samp]) == 0
    assert main(["lambda-fit", "--in", samp,
                 "--out", str(tmp_path / "f.json")]) == 2
    capsys.readouterr()


def _sample(tmp_path, name, sizes, seed, dim="1", reps="10"):
    out = str(tmp_path / name)
    assert main(["lambda-sample", "--dim", dim, "--sizes", sizes, "--reps",
                 reps, "--seed", str(seed), "--out", out]) == 0
    return out


def test_cli_lambda_fit_reads_the_draws_meta_json_lists(tmp_path, capsys,
                                                        monkeypatch):
    # a second lambda-sample run into the same directory leaves the first
    # run's files beside its own; the fit reads only the sizes and the seed
    # of meta.json, the second run, and writes the bytes of a fit of the
    # second run alone
    monkeypatch.setenv("TVDN_THREADS", "1")
    stale = _sample(tmp_path, "stale", "8,16", 1)
    _sample(tmp_path, "stale", "32,64", 2)
    fresh = _sample(tmp_path, "fresh", "32,64", 2)
    fits = []
    for draws in (stale, fresh):
        fit = str(tmp_path / (os.path.basename(draws) + "_fit.json"))
        assert main(["lambda-fit", "--in", draws, "--out", fit]) == 0
        fits.append(fit)
    capsys.readouterr()
    payload = _report(fits[0])
    assert payload["n_values"] == [32, 64] and payload["seed"] == 2
    assert payload["reps"] == 10
    assert _read_bytes(fits[0]) == _read_bytes(fits[1])
    for n in (32, 64):
        qq = [os.path.splitext(f)[0] + "_qq_n%d.csv" % n for f in fits]
        assert _read_bytes(qq[0]) == _read_bytes(qq[1])
    assert not os.path.exists(os.path.splitext(fits[0])[0] + "_qq_n8.csv")


def test_cli_lambda_fit_refuses_a_directory_meta_json_does_not_describe(
        tmp_path, capsys, monkeypatch):
    # no meta.json, a listed file that is missing and a listed file whose
    # draw count is not meta.json's reps: exit 2, and no fit or QQ table
    monkeypatch.setenv("TVDN_THREADS", "1")
    draws = _sample(tmp_path, "draws", "20,30", 3)
    fit = str(tmp_path / "fit.json")
    capsys.readouterr()

    def refused(message):
        assert main(["lambda-fit", "--in", draws, "--out", fit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert [f for f in os.listdir(tmp_path) if f.startswith("fit")] == []

    n30 = os.path.join(draws, "lambda_d1_n30.csv")
    values = read_csv_column(n30, header="lambda")
    write_csv_column(n30, values[:-1], "lambda")
    refused("%s holds 9 draws, not the 10 of meta.json" % n30)
    os.remove(n30)
    refused("No such file or directory: %r" % n30)
    write_csv_column(n30, values, "lambda")
    os.remove(os.path.join(draws, "meta.json"))
    refused("No such file or directory: %r"
            % os.path.join(draws, "meta.json"))
    # the dimension comes from meta.json alone
    with pytest.raises(SystemExit) as exc:
        main(["lambda-fit", "--in", draws, "--dim", "1", "--out", fit])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim 1" in capsys.readouterr().err


def test_cli_signal_file_names_give_their_format(tmp_path, capsys):
    # denoise refuses an --out whose name gives another format than that of
    # --in, before reading --in: a missing input is not reported; gen writes
    # CSV and refuses a .pgm name; each refusal exits 2 and writes nothing
    csv, pgm = str(tmp_path / "y.csv"), str(tmp_path / "y.pgm")
    write_csv_column(csv, np.arange(20.0), "value")
    write_pgm(pgm, Signal.from_array(np.eye(6) * 200), maxval=255)
    made = sorted(os.listdir(tmp_path))
    missing = str(tmp_path / "missing.csv")
    for src, out in ((csv, "o.pgm"), (pgm, "o.csv"), (csv, "o.PGM"),
                     (pgm, "o.txt"), (missing, "o.pgm")):
        assert main(["denoise", "--in", src, "--lambda", "1",
                     "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out must be .pgm exactly when --in is" in captured.err
    for argv in (["--out", pgm[:-4] + "_gen.pgm"],
                 ["--out", csv[:-4] + "_gen.csv", "--truth-out", "f.Pgm"]):
        assert main(["gen", "--sizes", "40"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gen writes CSV, never to a .pgm name" in captured.err
    assert sorted(os.listdir(tmp_path)) == made


def test_cli_outputs_read_back_as_inputs(tmp_path, capsys, monkeypatch):
    # every file a command writes is read back by the rule that wrote it:
    # gen, then denoise on a CSV and on a (P2) PGM, then denoise on its own
    # output; lambda-sample, lambda-fit, then denoise --coeffs on that fit
    monkeypatch.setenv("TVDN_THREADS", "1")
    csv = str(tmp_path / "y.csv")
    assert main(["gen", "--sizes", "60", "--seed", "5", "--out", csv]) == 0
    pgm = str(tmp_path / "y.pgm")
    img = np.random.default_rng(6).integers(0, 256, (8, 8)).astype(float)
    write_pgm(pgm, Signal.from_array(img), maxval=255, binary=False)
    for src in (csv, pgm):
        stem, ext = os.path.splitext(src)
        once, twice = stem + "_once" + ext, stem + "_twice" + ext
        assert main(["denoise", "--in", src, "--lambda", "3",
                     "--out", once]) == 0
        # lambda 0 fits the input itself, so the output reads back and is
        # written again byte for byte
        assert main(["denoise", "--in", once, "--lambda", "0",
                     "--out", twice]) == 0
        assert _read_bytes(twice) == _read_bytes(once)
        capsys.readouterr()
    draws = _sample(tmp_path, "draws", "4,6", 1, dim="2")
    fit = str(tmp_path / "fit.json")
    assert main(["lambda-fit", "--in", draws, "--out", fit]) == 0
    capsys.readouterr()
    assert main(["denoise", "--in", pgm, "--method", "universal",
                 "--sigma-known", "10", "--coeffs", fit]) == 0
    y = read_pgm(pgm)[0]
    assert _payload(capsys.readouterr().out)["lambda1"] == \
        universal_threshold(y.shape, 10.0, load_coefficients(fit))


def test_cli_risk_curve(tmp_path, capsys):
    noisy = str(tmp_path / "y.csv")
    clean = str(tmp_path / "f.csv")
    main(["gen", "--function", "blocks", "--sizes", "120", "--sigma", "0.8",
          "--seed", "5", "--out", noisy, "--truth-out", clean])
    curve = str(tmp_path / "curve.csv")
    assert main(["risk-curve", "--in", noisy, "--method", "sure",
                 "--sigma-known", "0.8", "--grid", "0.5,6,6",
                 "--out", curve]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["n_grid"] == 6
    grid = np.geomspace(0.5, 6, 6)
    assert any(abs(payload["argmin_lambda"] - g) < 1e-12 for g in grid)
    with open(curve) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "lambda,value" and len(lines) == 7
    assert main(["risk-curve", "--in", noisy, "--method", "oracle",
                 "--truth", clean, "--grid", "0.5,6,6"]) == 0
    assert main(["risk-curve", "--in", noisy, "--method", "oracle"]) == 2
    # denoise --method sure|oracle takes lambda2 from the same curve
    for method, extra in (("sure", ["--sigma-known", "0.8"]),
                          ("oracle", ["--truth", clean])):
        argv = ["--in", noisy, "--method", method, "--grid", "0.5,6,6"] + extra
        assert main(["risk-curve"] + argv) == 0
        lam = _payload(capsys.readouterr().out)["argmin_lambda"]
        assert main(["denoise"] + argv) == 0
        assert _payload(capsys.readouterr().out)["lambda2"] == lam
    capsys.readouterr()
    # lo > hi, and bounds that are not finite
    for grid in ("9,1,5", "1,inf,5", "inf,inf,3"):
        for argv in (["risk-curve", "--out", curve + ".bad"],
                     ["denoise", "--method", "sure", "--out", noisy + ".bad"]):
            assert main(argv + ["--in", noisy, "--sigma-known", "0.8",
                                "--grid", grid]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--grid bounds must" in captured.err
    assert not os.path.exists(curve + ".bad")
    assert not os.path.exists(noisy + ".bad")


def test_cli_rejects_options_its_command_does_not_read(tmp_path, capsys):
    # the draws of lambda-sample are at sigma 1 and gen's noise level is
    # --sigma, and neither denoise nor risk-curve draws anything
    noisy = str(tmp_path / "y.csv")
    main(["gen", "--sizes", "40", "--seed", "2", "--out", noisy])
    capsys.readouterr()
    for argv in (["denoise", "--in", noisy, "--seed", "3"],
                 ["risk-curve", "--in", noisy, "--seed", "3"],
                 ["gen", "--sigma-known", "2", "--out", noisy + ".gen"],
                 ["lambda-sample", "--dim", "1", "--sizes", "20",
                  "--reps", "2", "--sigma-known", "2",
                  "--out", str(tmp_path / "draws")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["y.csv"]


def test_cli_denoise_counts_small_steps_as_pieces(tmp_path, capsys):
    # the piece count takes no tolerance, so a step far below unit scale
    # still counts
    path = str(tmp_path / "step.csv")
    write_csv_column(path, np.repeat([0.0, 1e-4], 30), "value")
    assert main(["denoise", "--in", path, "--lambda", "1e-7"]) == 0
    payload = _payload(capsys.readouterr().out)
    assert payload["ncc"] == 2
    assert payload["count1"] == 2


def test_cli_sure_denoise_reuses_the_curve_fit(tmp_path, capsys, monkeypatch):
    # the fit at the SURE argmin comes from the risk curve: 30 cut solves
    # for the 30-point grid on one network, the curve's solver's, the same
    # output as a fresh solve there, and the rounds and gap of the
    # warm-started solve kept on the curve; the only other network is the
    # one Lambda's flows are routed on, so a fresh solve would be a third
    monkeypatch.setenv("TVDN_THREADS", "1")
    rng = np.random.default_rng(40)
    img = np.clip(np.rint(np.kron([[60.0, 160.0], [110.0, 30.0]], np.ones((8, 8)))
                          + 15.0 * rng.standard_normal((16, 16))), 0, 255)
    src = str(tmp_path / "i.pgm")
    out = str(tmp_path / "o.pgm")
    write_pgm(src, Signal.from_array(img), maxval=255)
    calls, networks = [], []
    fit = tvdn.tvsolve.CutSolver._fit
    network = tvdn.cuts.CutNetwork

    def counted(self, lam, start):
        calls.append(lam)
        return fit(self, lam, start)

    def built(shape):
        networks.append(shape)
        return network(shape)

    monkeypatch.setattr(tvdn.tvsolve.CutSolver, "_fit", counted)
    monkeypatch.setattr(tvdn.cuts, "CutNetwork", built)
    assert main(["denoise", "--in", src, "--method", "sure", "--out", out]) == 0
    payload = _payload(capsys.readouterr().out)
    assert len(calls) == 30
    assert len(networks) == 2
    y, _, _ = read_pgm(src)
    curve = risk_curve(y, default_lambda_grid(lambda_max(y)), "sure",
                       sigma=estimate_sigma(y))
    lam = curve.argmin_lambda
    sol = tv_denoise(y, lam)
    assert payload["lambda2"] == lam
    assert payload["gap"] == curve.argmin_fit.gap
    assert payload["iterations"] == curve.argmin_fit.iterations
    ref = str(tmp_path / "ref.pgm")
    write_pgm(ref, sol.estimate, maxval=255)
    assert _read_bytes(out) == _read_bytes(ref)


def _warnings(err):
    return [l for l in err.splitlines() if l.startswith("warning: ")]


def test_cli_reports_zero_sigma_estimate(tmp_path, capsys):
    path = str(tmp_path / "steps.csv")
    write_csv_column(path, np.repeat([0.0, 5.0, 2.0], 20), "value")
    for argv in (["denoise", "--in", path, "--method", "adaptive"],
                 ["denoise", "--in", path, "--method", "sure"],
                 ["risk-curve", "--in", path]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        (line,) = _warnings(captured.err)
        assert "noise level is 0" in line
    payload = _payload(captured.out)
    assert payload["n_grid"] == 30
    # a known sigma, or a method that does not use sigma, raises no warning
    for argv in (["denoise", "--in", path, "--method", "adaptive",
                  "--sigma-known", "1"],
                 ["denoise", "--in", path, "--lambda", "1"],
                 ["risk-curve", "--in", path, "--sigma-known", "1"]):
        assert main(argv) == 0
        assert _warnings(capsys.readouterr().err) == []


def test_cli_coeffs_override(tmp_path, capsys):
    # shipped d=2 coefficients written to a fit file give the same threshold
    c = default_coefficients(2)
    fit = str(tmp_path / "fit.json")
    write_json_report(fit, {"dim": 2, "a_mu": c.a_mu, "b_mu": c.b_mu,
                            "a_beta": c.a_beta, "b_beta": c.b_beta})
    rng = np.random.default_rng(12)
    img = np.clip(128 + 10 * rng.standard_normal((10, 10)), 0, 255)
    src = str(tmp_path / "i.pgm")
    write_pgm(src, Signal.from_array(img), maxval=255)
    lam = []
    for extra in ([], ["--coeffs", fit]):
        assert main(["denoise", "--in", src, "--method", "universal",
                     "--sigma-known", "10.0"] + extra) == 0
        lam.append(_payload(capsys.readouterr().out)["lambda1"])
    assert lam[0] == pytest.approx(lam[1], rel=1e-12)
    # a fit for another dimension is refused on an image (exit 2); a 1D
    # signal takes the closed form and reads no fit
    series = str(tmp_path / "s.csv")
    write_csv_column(series, img.ravel(), "value")
    for dim in (1, 3):
        write_json_report(fit, {"dim": dim, "a_mu": c.a_mu, "b_mu": c.b_mu,
                                "a_beta": c.a_beta, "b_beta": c.b_beta})
        for method in ("universal", "adaptive"):
            assert main(["denoise", "--in", src, "--method", method,
                         "--sigma-known", "10.0", "--coeffs", fit]) == 2
            assert "dimension" in capsys.readouterr().err
            assert main(["denoise", "--in", series, "--method", method,
                         "--sigma-known", "10.0", "--coeffs", fit]) == 0
            capsys.readouterr()


def test_load_coefficients_names_a_missing_field(tmp_path):
    c = default_coefficients(2)
    fit = str(tmp_path / "fit.json")
    write_json_report(fit, {"dim": 2, "a_mu": c.a_mu, "a_beta": c.a_beta,
                            "b_beta": c.b_beta})
    with pytest.raises(ValueError,
                       match="fit file %s is missing field 'b_mu'" % fit):
        load_coefficients(fit)


def test_cli_json_inputs_refuse_other_values_by_name(tmp_path, capsys,
                                                     monkeypatch):
    # a meta.json or --coeffs file that is not a JSON object, misses a
    # field or holds a field of the wrong type exits 2, naming the file and
    # the field, before anything is written
    monkeypatch.setenv("TVDN_THREADS", "1")
    draws = _sample(tmp_path, "draws", "20,30", 3)
    meta = os.path.join(draws, "meta.json")
    good = read_json_report(meta)
    fit = str(tmp_path / "fit.json")
    csv = str(tmp_path / "y.csv")
    write_csv_column(csv, np.arange(20.0) % 3, "value")
    coeffs = str(tmp_path / "c.json")
    out = str(tmp_path / "o.csv")
    capsys.readouterr()

    def refused(argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert not os.path.exists(fit) and not os.path.exists(out)

    fit_argv = ["lambda-fit", "--in", draws, "--out", fit]
    for value in ([1, 2], 3, "meta", None):
        with open(meta, "w") as fh:
            json.dump(value, fh)
        refused(fit_argv, "%s does not hold a JSON object" % meta)
    for field in ("dim", "sizes", "reps", "seed"):
        write_json_report(meta, {k: v for k, v in good.items() if k != field})
        refused(fit_argv, "%s is missing field %r" % (meta, field))
    for field, value in (("dim", "1"), ("reps", 10.0), ("seed", None),
                         ("sizes", 20), ("sizes", [20, "30"]), ("dim", True)):
        write_json_report(meta, dict(good, **{field: value}))
        refused(fit_argv, "%s: dim, reps and seed must be integers and sizes "
                          "a list of integers" % meta)
    write_json_report(meta, good)
    assert main(fit_argv) == 0
    os.remove(fit)
    capsys.readouterr()

    c = default_coefficients(2)
    fields = {"a_mu": c.a_mu, "b_mu": c.b_mu, "a_beta": c.a_beta,
              "b_beta": c.b_beta, "dim": 2}
    coeff_argv = ["denoise", "--in", csv, "--method", "universal",
                  "--sigma-known", "1", "--coeffs", coeffs, "--out", out]
    with open(coeffs, "w") as fh:
        json.dump([1, 2], fh)
    refused(coeff_argv, "fit file %s does not hold a JSON object" % coeffs)
    write_json_report(coeffs, {k: v for k, v in fields.items() if k != "dim"})
    refused(coeff_argv, "fit file %s is missing field 'dim'" % coeffs)
    # the coefficients are finite JSON numbers and dim a JSON integer; a
    # boolean is neither, and nothing is converted
    for field, value in (("b_beta", [1.0]), ("a_mu", True), ("a_mu", False),
                         ("a_mu", "-0.395"), ("a_mu", "abc"),
                         ("a_beta", None), ("b_mu", float("nan")),
                         ("b_mu", -float("inf")), ("a_mu", 10 ** 400)):
        write_json_report(coeffs, dict(fields, **{field: value}))
        refused(coeff_argv, "fit file %s: field %r must be a finite number"
                % (coeffs, field))
    for value in (2.9, 2.0, "2", True):
        write_json_report(coeffs, dict(fields, dim=value))
        refused(coeff_argv, "fit file %s: field 'dim' must be an integer"
                % coeffs)
    write_json_report(coeffs, fields)
    assert load_coefficients(coeffs) == c
    # an integral coefficient is a JSON number like any other
    write_json_report(coeffs, dict(fields, b_mu=1))
    assert load_coefficients(coeffs).b_mu == 1.0


def _path_images(tmp_path):
    # 60 samples of blocks plus noise as a 60-sample CSV and as 1x60 and
    # 60x1 PGMs holding the same values
    rng = np.random.default_rng(16)
    v = np.clip(np.rint(np.repeat([60.0, 160.0, 90.0, 200.0], 15)
                        + 12.0 * rng.standard_normal(60)), 0, 255)
    series = str(tmp_path / "s.csv")
    write_csv_column(series, v, "value")
    images = []
    for sizes in [(1, 60), (60, 1)]:
        path = str(tmp_path / ("img_%dx%d.pgm" % sizes))
        write_pgm(path, Signal.from_array(v.reshape(sizes)), maxval=255)
        images.append(path)
    return series, images


def test_cli_path_images_take_the_1d_rules(tmp_path, capsys):
    series, images = _path_images(tmp_path)
    for method in ("universal", "adaptive", "sure"):
        assert main(["denoise", "--in", series, "--method", method]) == 0
        ref = _payload(capsys.readouterr().out)
        for path in images:
            assert main(["denoise", "--in", path, "--method", method]) == 0
            payload = _payload(capsys.readouterr().out)
            assert payload.pop("sizes") in ([1, 60], [60, 1])
            assert payload == {k: x for k, x in ref.items() if k != "sizes"}
            assert payload["iterations"] == 0
            if method == "universal":
                assert payload["lambda1"] == universal_threshold(
                    LatticeShape((60,)), payload["sigma_used"])


def test_cli_risk_curve_on_path_images(tmp_path, capsys):
    series, images = _path_images(tmp_path)
    ref = str(tmp_path / "ref.csv")
    assert main(["risk-curve", "--in", series, "--out", ref]) == 0
    for path in images:
        out = path + ".curve.csv"
        assert main(["risk-curve", "--in", path, "--out", out]) == 0
        assert _read_bytes(out) == _read_bytes(ref)
    capsys.readouterr()


# ---------------------------------------------------------------- pool


def _square(x):
    return x * x


def test_every_exported_name_resolves():
    assert [name for name in tvdn.__all__ if not hasattr(tvdn, name)] == []


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("TVDN_THREADS", "3")
    assert worker_count(10) == 3
    assert worker_count(2) == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("TVDN_THREADS", "0")
    assert worker_count(10) == 1
    monkeypatch.delenv("TVDN_THREADS")
    assert worker_count(10) == min(os.cpu_count() or 1, 10)


_RUNS = None  # a fork-shared count of task runs, set by the test below


def _counted_square(x):
    with _RUNS.get_lock():
        _RUNS.value += 1
    return x * x


def test_parallel_map_matches_serial(monkeypatch):
    # up to four processes contend for the shared task counter: a lost
    # update would run a task twice, or leave one unrun
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = parallel_map(_square, range(300))
    assert serial == [x * x for x in range(300)]
    for threads in ("2", "4"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        runs = multiprocessing.get_context("fork").Value("i", 0)
        monkeypatch.setattr(sys.modules[__name__], "_RUNS", runs)
        assert parallel_map(_counted_square, range(300)) == serial
        assert runs.value == 300


def _square_or_raise(x):
    if x == 5:
        raise ArithmeticError("task 5")
    return x * x


def _freeze_count(_):
    return gc.get_freeze_count()


def test_parallel_map_forks_from_a_frozen_heap(monkeypatch):
    # the workers fork from a frozen heap, and the parent's heap is thawed
    # once the map returns, whether or not a task raised
    monkeypatch.setenv("TVDN_THREADS", "2")
    assert gc.get_freeze_count() == 0
    assert min(parallel_map(_freeze_count, range(4))) > 0
    assert gc.get_freeze_count() == 0
    assert parallel_map(_square, range(8)) == [_square(x) for x in range(8)]
    assert gc.get_freeze_count() == 0
    with pytest.raises(ArithmeticError, match="task 5"):
        parallel_map(_square_or_raise, range(8))
    assert gc.get_freeze_count() == 0


def _pid_after_nap(_):
    time.sleep(0.05)
    return os.getpid()


def test_parallel_map_runs_tasks_in_the_caller_and_one_worker(monkeypatch):
    # at TVDN_THREADS=2 the caller runs its share of the tasks in place
    # beside exactly one forked worker
    monkeypatch.setenv("TVDN_THREADS", "2")
    pids = parallel_map(_pid_after_nap, range(8))
    me = os.getpid()
    assert me in pids
    assert len(set(pids) - {me}) == 1


def _no_children():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _raise_in(args):
    where, caller, x = args
    time.sleep(0.05)
    if (os.getpid() == caller) == (where == "caller"):
        raise ArithmeticError("task %d in the %s" % (x, where))
    return x


def test_parallel_map_leaves_no_child_behind(monkeypatch):
    # every worker is reaped whether the map returns or a task raises in
    # the caller or in a worker: a child left behind would still be
    # running, or a zombie
    monkeypatch.setenv("TVDN_THREADS", "2")
    assert _no_children()
    assert parallel_map(_square, range(8)) == [_square(x) for x in range(8)]
    assert _no_children()
    me = os.getpid()
    for where in ("caller", "worker"):
        with pytest.raises(ArithmeticError, match="in the " + where):
            parallel_map(_raise_in, [(where, me, x) for x in range(8)])
        assert _no_children()


def _exit_in_worker(args):
    caller, x = args
    time.sleep(0.05)
    if os.getpid() != caller:
        os._exit(3)
    return x


def _hung(signum, frame):
    raise TimeoutError("parallel_map still waits for a dead worker")


def test_parallel_map_reports_a_worker_that_died(monkeypatch):
    # a worker that dies mid-map sends nothing: the map raises once every
    # worker is reaped, and does not wait for results that never come
    monkeypatch.setenv("TVDN_THREADS", "2")
    me = os.getpid()
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match=r"exited with codes \[3\]"):
            parallel_map(_exit_in_worker, [(me, x) for x in range(8)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _no_children()


def test_monte_carlo_loops_match_at_every_process_count(monkeypatch):
    # results are placed by task index, so the tables and the draws are the
    # same whichever process ran each task
    cfg = ExperimentConfig("mse_1d", functions=("blocks", "bumps"),
                           sizes=(100, 200), reps=(3, 2), seed=4, sigma=1.0)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        runs.append((bench_mse(cfg).rows,
                     run_lambda_samples(2, (4, 6), reps=3, seed=9)))
    (rows, draws), *others = runs
    for other_rows, other_draws in others:
        assert other_rows == rows
        assert list(other_draws) == list(draws)
        for n in draws:
            np.testing.assert_array_equal(other_draws[n], draws[n])


def test_bad_worker_count_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("TVDN_THREADS", "abc")
    with pytest.raises(ValueError, match="TVDN_THREADS must be an integer"):
        worker_count(10)
    assert main(["bench-mse", "--functions", "blocks", "--sizes", "50",
                 "--reps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "TVDN_THREADS must be an integer, got 'abc'" in captured.err
