"""tools/cli_digest.py: the digests of a call list at two process counts."""
import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "cli_digest", REPO / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_digests_match_at_every_process_count(tmp_path, monkeypatch):
    # a two-call list whose second call maps four tasks over the pool: the
    # listing names every file the calls wrote and each call's stdout, and
    # is the same at one and at two processes
    todo = [("gen", ["gen", "--sizes", "300", "--out", "y.csv",
                     "--truth-out", "f.csv"]),
            ("mse", ["bench-mse", "--functions", "blocks,bumps", "--sizes",
                     "100,200", "--reps", "2", "--out", "mse.json"])]
    listings = []
    for threads in ("1", "2"):
        monkeypatch.setenv("TVDN_THREADS", threads)
        listings.append(cli_digest.run_calls(str(tmp_path / threads), todo))
    assert listings[0] == listings[1]
    assert [path for _, path in listings[0]] == [
        "f.csv", "gen.stdout", "mse.json", "mse.stdout", "y.csv"]
    assert '"out": "y.csv"' in (tmp_path / "1" / "gen.stdout").read_text()
