"""File format round-trips and command line behavior (in-process main calls)."""
import json
import os

import numpy as np
import pytest

import tvdn.tvsolve
from tvdn._pool import parallel_map, worker_count
from tvdn.cli import main
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
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")  # raster too short
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P2\n2 2\n10\n1 2 3 44\n")  # sample over maxval
    with pytest.raises(ValueError):
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
        assert "lambda must be nonnegative" in captured.err
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


def test_cli_refuses_bad_values_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    for lam in ("nan", "-1"):
        _refused_before_reading(
            capsys, ["denoise", "--in", missing, "--lambda", lam],
            "lambda must be nonnegative")
    for grid, message in (("1,2", "--grid expects COUNT or LO,HI,COUNT"),
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
    # a bad tolerance, signal ratio or size is refused before the pool
    # starts, in the words of the value at fault
    import tvdn.bench
    pooled = []
    monkeypatch.setattr(tvdn.bench, "parallel_map",
                        lambda fn, items: pooled.append(fn) or [])
    out = str(tmp_path / "out")
    for argv, message in (
            (["lambda-sample", "--dim", "2", "--sizes", "8", "--reps", "2",
              "--tol", "nan"], "tol must be positive and finite"),
            (["bench-mse", "--snr", "nan"], "snr must be positive and finite"),
            (["bench-mse", "--functions", "blocks", "--sizes", "5"],
             "n must be at least 8"),
            (["bench-seg", "--sizes", "3"], "more levels than samples"),
            (["gen", "--snr", "inf"], "snr must be positive and finite")):
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
                         "--reps", "2", "--tol", tol,
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
    # for the 30-point grid on 6 networks, one per chain, the same output as
    # a fresh solve there, and the rounds and gap of the warm-started solve
    # kept on the curve
    monkeypatch.setenv("TVDN_THREADS", "1")
    rng = np.random.default_rng(40)
    img = np.clip(np.rint(np.kron([[60.0, 160.0], [110.0, 30.0]], np.ones((8, 8)))
                          + 15.0 * rng.standard_normal((16, 16))), 0, 255)
    src = str(tmp_path / "i.pgm")
    out = str(tmp_path / "o.pgm")
    write_pgm(src, Signal.from_array(img), maxval=255)
    calls, networks = [], []
    solve = tvdn.tvsolve.CutSolver.solve
    network = tvdn.tvsolve.CutNetwork

    def counted(self, lam, start=None):
        calls.append(lam)
        return solve(self, lam, start)

    def built(shape):
        networks.append(shape)
        return network(shape)

    monkeypatch.setattr(tvdn.tvsolve.CutSolver, "solve", counted)
    monkeypatch.setattr(tvdn.tvsolve, "CutNetwork", built)
    assert main(["denoise", "--in", src, "--method", "sure", "--out", out]) == 0
    payload = _payload(capsys.readouterr().out)
    assert len(calls) == 30
    assert len(networks) == 6
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


def test_parallel_map_matches_serial(monkeypatch):
    monkeypatch.setenv("TVDN_THREADS", "1")
    serial = parallel_map(_square, range(8))
    monkeypatch.setenv("TVDN_THREADS", "2")
    parallel = parallel_map(_square, range(8))
    assert serial == parallel == [x * x for x in range(8)]
