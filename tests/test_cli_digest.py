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


def test_check_names_added_removed_and_changed_paths():
    # two synthetic listings, headers and blank lines included: each path
    # that differs is named once, sorted by path; equal listings give none
    old = cli_digest.read_listing([
        "# sha1  path of every output", "# python 3.x  numpy 2.x", "",
        "aa  a.csv", "bb  b.json", "cc  sub/c.stdout", "dd  d  spaced.csv"])
    new = cli_digest.read_listing([
        "# python 3.y  numpy 2.y",
        "aa  a.csv", "b2  b.json", "dd  d  spaced.csv", "ee  e.csv"])
    assert old["d  spaced.csv"] == "dd" and len(old) == 4
    assert cli_digest.compare(old, new) == [
        "changed b.json", "added   e.csv", "removed sub/c.stdout"]
    assert cli_digest.compare(new, old) == [
        "changed b.json", "removed e.csv", "added   sub/c.stdout"]
    assert cli_digest.compare(old, dict(old)) == []
    assert cli_digest.header()[-1].startswith("# python ")
