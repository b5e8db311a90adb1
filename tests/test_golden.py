"""Output bytes of every command, pinned by SHA-256.

Small ``run``s (clustered and non-clustered, 30 snapshots), a
``sweep --parameter num_pairs --values 5,9`` and ``tables`` go through
``cli.main``, table build included; every file they write must hash to the
digest recorded in ``data/golden_sha256.json``.

A change meant to keep results identical passes unchanged.  A deliberate
model change (for example exact, seedless leakage tables) re-records the
digests with ``PYTHONPATH=src python tests/test_golden.py``, which prints
each changed digest as ``name/file old → new`` (or ``no digest changed``),
and says so, with the reason, in CHANGES.md.
"""
import hashlib
import json
from pathlib import Path

import pytest

import d2d_underlay as d
from d2d_underlay import cli

GOLDEN = Path(__file__).parent / "data" / "golden_sha256.json"

COMMANDS = {
    "run_clustered": lambda cfg, out: ["run", "--config", cfg["clustered"],
                                       "--out", out],
    "run_nonclustered": lambda cfg, out: ["run", "--config",
                                          cfg["nonclustered"], "--out", out],
    "sweep_num_pairs": lambda cfg, out: ["sweep", "--config", cfg["clustered"],
                                         "--parameter", "num_pairs",
                                         "--values", "5,9", "--out", out],
    "tables_time": lambda cfg, out: ["tables", "--out", out],
}


def _configs(directory):
    paths = {}
    for name, layout in (("clustered", d.Layout.CLUSTERED),
                         ("nonclustered", d.Layout.NON_CLUSTERED)):
        path = directory / ("%s.cfg" % name)
        d.save_config(d.with_updates(d.ScenarioConfig(), iterations=30,
                                     layout=layout), path)
        paths[name] = str(path)
    return paths


def _digests(name, directory):
    """SHA-256 of each file that command ``name`` writes below
    ``directory``, keyed by file name."""
    out = directory / name
    code = cli.main(COMMANDS[name](_configs(directory), str(out)))
    assert code == cli.EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path, capsys):
    want = json.loads(GOLDEN.read_text())[name]
    got = _digests(name, tmp_path)
    assert sorted(got) == sorted(want), "files written differ"
    for fname in sorted(want):
        assert got[fname] == want[fname], "%s/%s differs" % (name, fname)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: _digests(name, Path(tmp)) for name in sorted(COMMANDS)}
    old = json.loads(GOLDEN.read_text())
    changed = ["%s/%s %s → %s" % (name, fname,
                                  old.get(name, {}).get(fname), digest)
               for name in sorted(record)
               for fname, digest in sorted(record[name].items())
               if old.get(name, {}).get(fname) != digest]
    print("\n".join(changed) or "no digest changed")
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
