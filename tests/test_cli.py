import contextlib
import importlib
import io
import os
import stat
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2d_underlay as d
from d2d_underlay import cli, simulation as sim, waveform as wf

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def config_path(tmp_path):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=3)
    path = tmp_path / "scenario.cfg"
    d.save_config(cfg, path)
    return str(path)


@pytest.fixture
def fast_tables(monkeypatch, tables):
    monkeypatch.setattr(cli, "_build_tables", lambda: tables)


# ---------------------------------------------------------------------------
# help and usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,name", [
    (["--help"], "help_main.txt"),
    (["tables", "--help"], "help_tables.txt"),
    (["run", "--help"], "help_run.txt"),
    (["sweep", "--help"], "help_sweep.txt"),
    (["validate", "--help"], "help_validate.txt"),
])
def test_help_text(capsys, monkeypatch, argv, name):
    """At the 80 columns the pinned files were written at: argparse wraps
    at ``COLUMNS``, whatever the terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / name).read_text()


def test_import_leaves_unused_scipy_subpackages_unloaded():
    """The package and its CLI import scipy's fft, linalg.lapack and
    optimize; scipy.signal would pull in the subpackages below, adding
    ~26 MB and ~0.7 s to every process.  A fresh interpreter, because
    other test modules import scipy.stats here."""
    unused = ("scipy.signal", "scipy.stats", "scipy.interpolate",
              "scipy.integrate", "scipy.ndimage")
    probe = ("import sys, d2d_underlay, d2d_underlay.cli; "
             "print(' '.join(m for m in %r if m in sys.modules))" % (unused,))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=_src_env())
    assert done.stdout.split() == []


def test_console_script_is_cli_main(config_path, tmp_path):
    """The ``d2d-underlay`` script of ``pyproject.toml`` is ``cli.main``, and
    ``python -m d2d_underlay.cli`` exits with its codes: a success prints
    nothing on stderr, and each failure exactly one ``error:`` line."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["d2d-underlay"]
    module, _, name = entry.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
    bad = tmp_path / "bad.cfg"
    bad.write_text("num_d2d_pairs = 0\n")
    cases = [(["validate", "--config", config_path], cli.EXIT_OK),
             (["validate"], cli.EXIT_USAGE),
             (["validate", "--config", str(tmp_path / "nope.cfg")],
              cli.EXIT_CONFIG),
             (["validate", "--config", str(bad)], cli.EXIT_INVARIANT)]
    procs = [subprocess.Popen([sys.executable, "-m", "d2d_underlay.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=_src_env())
             for argv, _ in cases]
    for (argv, code), proc in zip(cases, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == code, argv
        if code == cli.EXIT_OK:
            assert (out, err) == ("ok\n", "")
        else:
            assert out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, [])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = _run(capsys, ["run", "--config", "x", "--bogus"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("option", [["--method", "psd"],
                                    ["--pair", "fbmc:ofdm"]],
                         ids=["method", "pair"])
def test_tables_takes_no_build_option(capsys, tmp_path, option):
    """``tables`` writes the tables ``run`` and ``sweep`` build, so it has
    no option that would build others."""
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, ["tables", *option, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_empty_sweep_values_is_usage_error(capsys, config_path, fast_tables):
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "num_pairs", "--values", ","])
    assert code == cli.EXIT_USAGE
    assert "--values" in err


@pytest.mark.parametrize("sub", [["run"], ["sweep", "--parameter", "num_pairs",
                                           "--values", "5"]])
def test_negative_jobs_is_usage_error(capsys, config_path, fast_tables,
                                      tmp_path, sub):
    out = tmp_path / "out"
    code, _, err = _run(capsys, sub + ["--config", config_path, "--jobs", "-1",
                                       "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--jobs" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config failures
# ---------------------------------------------------------------------------

def test_missing_config_exits_3(capsys, tmp_path):
    code, _, err = _run(capsys, ["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:")


def test_tables_out_is_a_file_exits_3(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(capsys, ["tables", "--out", str(blocker)])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert blocker.read_text() == ""


@pytest.fixture
def campaigns(monkeypatch):
    """Records every campaign started, so a test can assert that none ran."""
    started = []
    run = sim.run_campaign

    def record(config, *args, **kwargs):
        started.append(config)
        return run(config, *args, **kwargs)
    monkeypatch.setattr(sim, "run_campaign", record)
    return started


def test_config_is_a_directory_exits_3(capsys, fast_tables, campaigns,
                                       tmp_path):
    code, _, err = _run(capsys, ["run", "--config", str(tmp_path),
                                 "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert campaigns == []


def test_run_out_is_a_file_exits_3(capsys, config_path, fast_tables,
                                   campaigns, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(capsys, ["run", "--config", config_path,
                                 "--out", str(blocker)])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert campaigns == []
    assert blocker.read_text() == ""


def test_sweep_out_below_a_file_exits_3(capsys, config_path, fast_tables,
                                        tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "num_pairs", "--values", "3",
                                 "--out", str(blocker / "sub")])
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_invalid_config_value_exits_4(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_d2d_pairs = -3\n")
    code, _, err = _run(capsys, ["validate", "--config", str(path)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:")


@pytest.mark.parametrize("line", ["num_rbs = 5.0", "cell_radius = abc",
                                  "layout = diagonal"],
                         ids=["num_rbs", "cell_radius", "layout"])
def test_unparsable_config_value_names_key_and_line(capsys, fast_tables,
                                                    campaigns, tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    code, _, err = _run(capsys, ["run", "--config", str(path),
                                 "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "%s:1: %s:" % (path, line.split(" = ")[0]) in err
    assert campaigns == []
    assert not out.exists()


def _config_with(tmp_path, line):
    """A 3-iteration config file of the ``key = value`` lines in ``line``,
    each key once, with every other key at its default; it bypasses
    ScenarioConfig's own validation."""
    path = tmp_path / "scenario.cfg"
    path.write_text("iterations = 3\n" + line + "\n")
    return str(path)


def test_validate_rejects_nan_cell_radius(capsys, tmp_path):
    path = _config_with(tmp_path, "cell_radius = nan")
    code, out, err = _run(capsys, ["validate", "--config", path])
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "cell_radius" in err


def test_run_rejects_nan_cu_min_sinr(capsys, fast_tables, tmp_path):
    path = _config_with(tmp_path, "cu_min_sinr = nan")
    out = tmp_path / "out"
    code, _, err = _run(capsys, ["run", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "cu_min_sinr" in err
    assert not (out / "samples.csv").exists()


def test_sweep_rejects_nan_cluster_radius(capsys, config_path, fast_tables,
                                          tmp_path):
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "cluster_radius",
                                 "--values", "nan", "--out", str(tmp_path)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_validate_rejects_random_cluster_beyond_cell(capsys, tmp_path):
    path = _config_with(tmp_path, "cluster_radius_max = 300")
    code, out, err = _run(capsys, ["validate", "--config", path])
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "radius 300.0 m" in err


def test_run_rejects_random_cluster_beyond_cell(capsys, fast_tables,
                                                campaigns, tmp_path):
    path = _config_with(tmp_path, "cluster_radius_max = 300")
    out = tmp_path / "out"
    code, _, err = _run(capsys, ["run", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert campaigns == []
    assert not out.exists()


@pytest.mark.parametrize("line,argv", [
    ("cluster_distance_fixed = 100", ["validate"]),
    ("cluster_distance_fixed = 100", ["run"]),
    ("", ["sweep", "--parameter", "cluster_distance",
          "--values", "0,100,200"]),
], ids=["validate", "run", "sweep"])
def test_cluster_distance_needs_clustered_layout(capsys, fast_tables,
                                                 campaigns, tmp_path, line,
                                                 argv):
    """Without a cluster, a fixed cluster distance would be ignored."""
    path = _config_with(tmp_path, "layout = non_clustered\n" + line)
    out = tmp_path / "out"
    argv = argv[:1] + ["--config", path] + argv[1:]
    if argv[0] != "validate":
        argv += ["--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert code == cli.EXIT_INVARIANT
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "cluster_distance_fixed" in err and "NON_CLUSTERED" in err
    assert campaigns == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_config_not_utf8_exits_3_naming_the_file(capsys, fast_tables,
                                                 campaigns, tmp_path,
                                                 command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"num_rbs = 15\n\xff\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert code == cli.EXIT_CONFIG
    assert stdout == ""
    assert err.startswith("error: %s: not UTF-8 text" % path)
    assert len(err.splitlines()) == 1
    assert campaigns == []
    assert not out.exists()


def test_validate_rejects_negative_seed(capsys, tmp_path):
    path = _config_with(tmp_path, "seed = -1")
    code, out, err = _run(capsys, ["validate", "--config", path])
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "seed" in err


def test_run_rejects_negative_seed(capsys, fast_tables, campaigns, tmp_path):
    path = _config_with(tmp_path, "seed = -1")
    out = tmp_path / "out"
    code, _, err = _run(capsys, ["run", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "seed" in err
    assert campaigns == []
    assert not out.exists()


@pytest.mark.parametrize("line", ["max_tx_power = 4000",
                                  "noise_per_subcarrier = 1e308",
                                  "cu_min_sinr = 4000",
                                  "max_tx_power = -4000"])
def test_run_rejects_db_value_without_linear_value(capsys, fast_tables,
                                                   campaigns, tmp_path, line):
    """10^(x/10) overflows a float, or underflows to 0 W: the config fails
    when it is loaded, not in the campaign."""
    path = _config_with(tmp_path, line)
    out = tmp_path / "out"
    code, stdout, err = _run(capsys, ["run", "--config", path,
                                      "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert stdout == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert line.split(" = ")[0] in err
    assert campaigns == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_repeated_config_key_exits_4_naming_both_lines(capsys, fast_tables,
                                                       campaigns, tmp_path,
                                                       command):
    path = tmp_path / "c.cfg"
    path.write_text("".join("seed = %d\n" % s for s in range(1, 10)))
    out = tmp_path / "out"
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert code == cli.EXIT_INVARIANT
    assert stdout == ""
    assert err == "error: %s:2: key 'seed' repeats line 1\n" % path
    assert campaigns == []
    assert not out.exists()


@settings(derandomize=True, deadline=None, max_examples=50)
@given(key=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True).filter(
    lambda k: k not in {f.name for f in fields(d.ScenarioConfig)}))
def test_unknown_config_key_exits_4(key):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        d.save_config(d.ScenarioConfig(), path)
        with open(path, "a") as fh:
            fh.write("%s = 1\n" % key)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--config", path])
    assert code == cli.EXIT_INVARIANT
    assert err.getvalue().startswith("error:")
    assert "unknown key %r" % key in err.getvalue()


def _float_field(name, **bounds):
    return st.tuples(st.just(name), st.floats(allow_nan=False,
                                              allow_infinity=False, **bounds))


def _int_field(name, **bounds):
    return st.tuples(st.just(name), st.integers(**bounds))


# every value outside a range-checked field's range, with the other fields
# at their defaults: 10 pairs on 15 RBs, clusters of radius 50-100 m in a
# 250 m cell
OUT_OF_RANGE = st.one_of(
    _float_field("cell_radius", max_value=100.0, exclude_max=True),
    _float_field("carrier_freq", max_value=0.0),
    _float_field("subcarrier_spacing", max_value=0.0),
    _int_field("num_rbs", max_value=9),
    _int_field("subcarriers_per_rb", max_value=0),
    _int_field("num_d2d_pairs", max_value=0),
    _int_field("num_d2d_pairs", min_value=16),
    _float_field("cluster_radius_min", max_value=0.0),
    _float_field("cluster_radius_min", min_value=100.0, exclude_min=True),
    _float_field("cluster_radius_max", max_value=50.0, exclude_max=True),
    _float_field("cluster_radius_max", min_value=250.0, exclude_min=True),
    _float_field("cluster_radius_fixed", max_value=0.0),
    _float_field("cluster_radius_fixed", min_value=250.0, exclude_min=True),
    _float_field("cluster_distance_fixed", max_value=0.0, exclude_max=True),
    _float_field("cluster_distance_fixed", min_value=150.0, exclude_min=True),
    _float_field("d2d_max_link_factor", max_value=0.0),
    _int_field("iterations", max_value=0),
    _int_field("seed", max_value=-1),
    # dB values whose linear value overflows a float or underflows to 0
    _float_field("cu_min_sinr", min_value=4000.0),
    _float_field("cu_min_sinr", max_value=-4000.0),
    _float_field("noise_per_subcarrier", min_value=4000.0),
    _float_field("noise_per_subcarrier", max_value=-4000.0),
    _float_field("max_tx_power", min_value=4000.0),
    _float_field("max_tx_power", max_value=-4000.0),
    _float_field("cu_tx_power", min_value=4000.0),
    _float_field("cu_tx_power", max_value=-4000.0),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(field_value=OUT_OF_RANGE)
def test_out_of_range_config_value_names_its_field(field_value):
    name, value = field_value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "w") as fh:
            fh.write("%s = %r\n" % (name, value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--config", path])
    assert code == cli.EXIT_INVARIANT
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert name in lines[0]
    assert repr(value) in lines[0] or "%.1f" % value in lines[0]


def test_num_cus_config_key_exits_4(capsys, tmp_path):
    """``num_cus`` follows ``num_rbs`` (one CU per RB) and is not a key."""
    path = tmp_path / "c.cfg"
    path.write_text("num_cus = 15\n")
    code, out, err = _run(capsys, ["validate", "--config", str(path)])
    assert code == cli.EXIT_INVARIANT
    assert out == ""
    assert "unknown key 'num_cus'" in err


def test_sweep_invariant_exits_4(capsys, config_path, fast_tables, tmp_path):
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "cluster_radius",
                                 "--values", "300", "--out", str(tmp_path)])
    assert code == cli.EXIT_INVARIANT
    assert "300" in err


def test_empty_campaign_exits_4(capsys, fast_tables, tmp_path):
    """A CU SINR floor of 90 dB leaves no CU headroom, so every snapshot is
    skipped and the report is empty."""
    path = _config_with(tmp_path, "cu_min_sinr = 90")
    out = tmp_path / "out"
    code, _, err = _run(capsys, ["run", "--config", path, "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err == "error: all 3 iterations were infeasible\n"
    assert not (out / "samples.csv").exists()


def test_sweep_checks_every_point_before_any_work(capsys, config_path,
                                                  fast_tables, campaigns,
                                                  tmp_path):
    out = tmp_path / "newdir"
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "cluster_radius",
                                 "--values", "70,300", "--out", str(out)])
    assert code == cli.EXIT_INVARIANT
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "sweep point CLUSTER_RADIUS = 300" in err
    assert campaigns == []
    assert not out.exists()


def test_non_integral_num_pairs_exits_4(capsys, config_path, fast_tables,
                                        tmp_path):
    code, _, err = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "num_pairs",
                                 "--values", "5.7", "--out", str(tmp_path)])
    assert code == cli.EXIT_INVARIANT
    assert "5.7" in err and "integer" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("parameter,values,code", [
    ("num_pairs", "5,5", cli.EXIT_OK),
    ("num_pairs", "5.0", cli.EXIT_OK),
    ("num_pairs", "nan", cli.EXIT_INVARIANT),
    ("num_pairs", "inf", cli.EXIT_INVARIANT),
    ("num_pairs", "1e400", cli.EXIT_INVARIANT),
    ("num_pairs", "-3", cli.EXIT_INVARIANT),
    ("num_pairs", "9,abc", cli.EXIT_USAGE),
    ("num_pairs", " , ", cli.EXIT_USAGE),
    ("cluster_distance", "nan", cli.EXIT_INVARIANT),
    ("cluster_distance", "-5", cli.EXIT_INVARIANT),
    ("cluster_distance", "1e9", cli.EXIT_INVARIANT),
])
def test_sweep_values_parsing(capsys, fast_tables, tmp_path, parameter,
                              values, code):
    path = tmp_path / "scenario.cfg"
    d.save_config(d.with_updates(d.ScenarioConfig(), iterations=2), path)
    out = tmp_path / "out"
    got, _, err = _run(capsys, ["sweep", "--config", str(path),
                                "--parameter", parameter, "--values", values,
                                "--out", str(out)])
    assert got == code
    if code == cli.EXIT_OK:
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + len(values.split(","))
        return
    assert err.startswith("error:") and len(err.splitlines()) == 1
    if code == cli.EXIT_INVARIANT:
        assert "sweep point %s = " % parameter.upper() in err
    assert not (out / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_tables_roundtrip(capsys, tmp_path):
    """``tables`` writes the four tables ``run`` and ``sweep`` build: a
    ``# interferer,victim,method,L`` header, then every ``l,value`` row in
    [-L, L] with values that read back bit-equal."""
    built = cli._build_tables()
    span = wf.DEFAULT_HALF_SPAN
    code, msg, _ = _run(capsys, ["tables", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert sorted(msg.split()) == sorted(str(p) for p in tmp_path.iterdir())
    written = {}
    for path in tmp_path.iterdir():
        head = path.read_text().splitlines()[0]
        a, b, method, L = head.lstrip("# ").split(",")
        key = (wf.WaveformType[a], wf.WaveformType[b])
        assert path.name == "table_%s_%s.csv" % tuple(
            k.value.lower() for k in key)
        assert method == built[key].method == wf.TIME_SIM
        assert int(L) == span
        rows = np.loadtxt(path, delimiter=",", comments="#")
        assert rows[:, 0].tolist() == list(range(-span, span + 1))
        written[key] = rows[:, 1]
    assert set(written) == set(built)
    assert [key for key, values in written.items() if not np.array_equal(
        values, built[key].coeffs[np.abs(np.arange(-span, span + 1))])] == []


def test_run_outputs_and_determinism(capsys, config_path, fast_tables, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code, msg, _ = _run(capsys, ["run", "--config", config_path,
                                     "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "3 iterations" in msg
    for name in ("samples.csv", "cdf.csv", "cdf.gp"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "samples.csv").read_text().splitlines()[0]
    assert header.startswith("iteration,case,")


def test_run_outputs_follow_umask(capsys, config_path, fast_tables, tmp_path):
    old = os.umask(0o022)
    try:
        code, _, _ = _run(capsys, ["run", "--config", config_path,
                                   "--out", str(tmp_path / "out")])
    finally:
        os.umask(old)
    assert code == cli.EXIT_OK
    assert {p.name: stat.S_IMODE(p.stat().st_mode)
            for p in (tmp_path / "out").iterdir()} == {
        "samples.csv": 0o644, "cdf.csv": 0o644, "cdf.gp": 0o644}


def test_sweep_outputs(capsys, config_path, fast_tables, tmp_path):
    code, msg, _ = _run(capsys, ["sweep", "--config", config_path,
                                 "--parameter", "num_pairs",
                                 "--values", "3,5", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert "2 sweep points" in msg
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("num_pairs,")
    assert len(lines) == 3
    assert (tmp_path / "sweep.gp").exists()


def test_validate_ok(capsys, config_path, tmp_path):
    code, out, _ = _run(capsys, ["validate", "--config", config_path])
    assert code == cli.EXIT_OK
    assert out.strip() == "ok"


def test_validate_has_no_tables_option(capsys, config_path, tmp_path):
    code, out, err = _run(capsys, ["validate", "--config", config_path,
                                   "--tables", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_run_without_out_writes_to_current_directory(capsys, config_path,
                                                     fast_tables, tmp_path,
                                                     monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code, msg, _ = _run(capsys, ["run", "--config", config_path])
    assert code == cli.EXIT_OK
    assert msg.endswith("-> .\n")
    assert sorted(p.name for p in cwd.iterdir()) == [
        "cdf.csv", "cdf.gp", "samples.csv"]
