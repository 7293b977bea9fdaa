"""Command-line surface: exit codes, artifacts, round-trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsq
from spinsq.cli import main, _parse_state
from spinsq.hypothesis import required_budget
from spinsq.montecarlo import child_generator
from spinsq.schemes import (
    Parameter,
    TotalSpinDataset,
    collect_all_pairs,
    collect_split_single,
    collect_total_spin,
    estimate_parameter,
    read_dataset,
    write_dataset,
)
from spinsq.states import DepolarizedMixture, DickeState, Direction, ManyBodySinglet
from spinsq.variance import var_parameter

Z = Direction.Z
TABLE2 = {"ts": 0.0284, "ap1": 5.5836, "ap2": 24.5046, "rp1": 5.5685,
          "rp2": 25.6667}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- plumbing


def test_state_specs():
    assert _parse_state("dicke:10:5") == DickeState(10, 5)
    assert _parse_state("dicke:10") == DickeState(10, 5)
    assert _parse_state("singlet:8") == ManyBodySinglet(8)
    mixed = _parse_state("dicke:4:2:0.3")
    assert isinstance(mixed, DepolarizedMixture)
    assert mixed.visibility == 0.3
    short = _parse_state("dicke:10:0.5")  # no integer token -> visibility
    assert isinstance(short, DepolarizedMixture)
    assert short.base == DickeState(10, 5)


@pytest.mark.parametrize("spec", ["", "ghz:4", "dicke", "dicke:x", "dicke:4:2:0.5:9",
                                  "singlet:8:zz", "dicke:1"])
def test_state_spec_rejects(spec):
    with pytest.raises(ValueError):
        _parse_state(spec)


_ONE_QUBIT = {
    "sample": ["sample", "--state", "dicke:1", "--pattern", "rp", "--l", "4",
               "--k", "1", "--out", "{tmp}/rp.csv"],
    "estimate": ["estimate", "--scheme", "ts", "--param", "c",
                 "--state", "dicke:1", "{tmp}/ts.csv"],
    "variance": ["variance", "--state", "dicke:1", "--scheme", "ap1",
                 "--param", "c", "--k", "4"],
    "samplesize-ap1": ["samplesize", "--scheme", "ap1", "--param", "c", "--n", "1"],
    "samplesize-ts": ["samplesize", "--scheme", "ts", "--param", "c", "--n", "1"],
    "mc": ["mc", "--state", "dicke:1", "--scheme", "rp1", "--param", "c",
           "--l", "4", "--k", "1", "--trials", "4"],
}


@pytest.mark.parametrize("command", sorted(_ONE_QUBIT))
def test_one_qubit_exits_two(command, tmp_path):
    write_dataset(collect_total_spin(DickeState(2, 1), k=3, rng=child_generator(0, 0)),
                  tmp_path / "ts.csv")
    argv = [a.format(tmp=tmp_path) for a in _ONE_QUBIT[command]]
    rc, out, err = run(argv)
    assert (rc, out) == (2, "")
    assert "N >= 2" in json.loads(err)["error"]


def test_help_exits_zero():
    rc, out, err = run(["--help"])
    assert rc == 0


def test_unknown_command_exits_two():
    rc, out, err = run(["frobnicate"])
    assert rc == 2


# ---------------------------------------------------------------- sample


def test_sample_singlet_all_zero(tmp_path):
    dest = tmp_path / "ts.csv"
    rc, *_ = run(["sample", "--state", "singlet:8", "--pattern", "ts",
                  "--k", "3", "--seed", "1", "--out", str(dest)])
    assert rc == 0
    rows = [line for line in dest.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 9
    assert all(row.split(",")[2] == "0" for row in rows)


def test_sample_table_row_count(tmp_path):
    dest = tmp_path / "big.csv"
    rc, *_ = run(["sample", "--state", "dicke:10:5", "--pattern", "ts",
                  "--k", "7400", "--seed", "7", "--out", str(dest)])
    assert rc == 0
    data = [line for line in dest.read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(data) - 1 == 22200  # one row per preparation


def test_sample_embeds_seed_and_hash(tmp_path):
    dest = tmp_path / "ds.csv"
    run(["sample", "--state", "singlet:4", "--pattern", "ap", "--k", "2",
         "--seed", "9", "--out", str(dest)])
    head = dest.read_text().splitlines()[:4]
    assert head[0].startswith("# spinsq-dataset schema=1 kind=pairs")
    assert any(line.startswith("# seed=9") for line in head)
    assert any("config_hash=" in line for line in head)


def test_sample_rejects_bad_pattern(tmp_path):
    rc, out, err = run(["sample", "--state", "singlet:4", "--pattern", "zig",
                        "--k", "2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "pattern" in json.loads(err)["error"]


def test_sample_requires_budget(tmp_path):
    rc, out, err = run(["sample", "--state", "singlet:4", "--pattern", "ts",
                        "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--k" in json.loads(err)["error"]


# ---------------------------------------------------------------- estimate


def test_estimate_round_trip_bit_exact(tmp_path):
    dest = tmp_path / "ts.csv"
    run(["sample", "--state", "dicke:10:5", "--pattern", "ts", "--k", "500",
         "--seed", "7", "--out", str(dest)])
    rc, out, _ = run(["estimate", "--scheme", "ts", "--param", "c", str(dest)])
    assert rc == 0
    cli_value = json.loads(out)["value"]

    dataset = collect_total_spin(DickeState(10, 5), 500, child_generator(7, 0))
    expected = estimate_parameter("ts", Parameter("c"), {"total_spin": dataset})
    assert cli_value == expected.value


def test_estimate_dicke_near_bound(tmp_path):
    dest = tmp_path / "ts.csv"
    run(["sample", "--state", "dicke:10:5", "--pattern", "ts", "--k", "2000",
         "--seed", "3", "--out", str(dest)])
    rc, out, _ = run(["estimate", "--scheme", "ts", "--param", "c",
                      "--state", "dicke:10:5", str(dest)])
    doc = json.loads(out)
    sigma = math.sqrt(var_parameter(DickeState(10, 5), "ts", Parameter("c"), k=2000).value)
    assert abs(doc["value"] - 30.0) <= 5 * sigma
    assert doc["separable_bound"] == 5.0
    assert doc["p_value_bound"] < 0.01


def test_estimate_singlet_zero_pvalue(tmp_path):
    dest = tmp_path / "ts.csv"
    run(["sample", "--state", "singlet:8", "--pattern", "ts", "--k", "4",
         "--seed", "2", "--out", str(dest)])
    rc, out, _ = run(["estimate", "--scheme", "ts", "--param", "b",
                      "--state", "singlet:8", str(dest)])
    doc = json.loads(out)
    assert doc["value"] == 0.0
    assert doc["variance"] == 0.0
    assert doc["p_value_bound"] == 0.0


def test_estimate_missing_block_and_direction(tmp_path):
    pairs_path = tmp_path / "pairs.csv"
    split_path = tmp_path / "split.csv"
    state = DickeState(4, 2)
    write_dataset(collect_all_pairs(state, 4, child_generator(1, 0)), pairs_path)
    write_dataset(
        collect_split_single(state, 4, child_generator(2, 0), directions=("z",)),
        split_path,
    )
    # split file present but with the z direction only
    rc, out, err = run(["estimate", "--scheme", "ap2", "--param", "b",
                        str(pairs_path), str(split_path)])
    assert rc == 2
    assert "'x'" in json.loads(err)["error"]
    # split block missing entirely
    rc, out, err = run(["estimate", "--scheme", "ap2", "--param", "b",
                        str(pairs_path)])
    assert rc == 2
    assert "split" in json.loads(err)["error"]


def test_estimate_state_mismatch(tmp_path):
    dest = tmp_path / "ts.csv"
    run(["sample", "--state", "singlet:8", "--pattern", "ts", "--k", "4",
         "--seed", "2", "--out", str(dest)])
    rc, out, err = run(["estimate", "--scheme", "ts", "--param", "b",
                        "--state", "singlet:6", str(dest)])
    assert rc == 2
    assert "disagree" in json.loads(err)["error"]


def test_estimate_rejects_out_of_range_total_spin(tmp_path):
    # abs(-2**63) overflows to a negative value, so a range check on abs()
    # would let this outcome through
    low = -2**63
    with pytest.raises(ValueError, match="2m"):
        TotalSpinDataset(4, {Z: np.array([low, 0], dtype=np.int64)})
    dest = tmp_path / "ts.csv"
    run(["sample", "--state", "dicke:4:2", "--pattern", "ts", "--k", "3",
         "--seed", "1", "--out", str(dest)])
    rows = dest.read_text().splitlines()
    row = next(i for i, line in enumerate(rows) if line.startswith("z,0,"))
    rows[row] = f"z,0,{low}"
    dest.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="2m"):
        read_dataset(dest)
    rc, out, err = run(["estimate", "--scheme", "ts", "--param", "c", str(dest)])
    assert rc == 2
    assert out == ""
    assert "2m" in json.loads(err)["error"]


def _edited_sample(tmp_path, pattern, budget, edit):
    """Sample a dicke:4:2 dataset, apply ``edit`` to its data rows, return the path."""
    dest = tmp_path / f"{pattern}.csv"
    rc, *_ = run(["sample", "--state", "dicke:4:2", "--pattern", pattern, *budget,
                  "--seed", "1", "--out", str(dest)])
    assert rc == 0
    lines = dest.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    dest.write_text("\n".join(lines[:head] + edit(lines[head:])) + "\n")
    return dest


def _assert_rejected(dest, scheme, match):
    with pytest.raises(ValueError, match=match):
        read_dataset(dest)
    rc, out, err = run(["estimate", "--scheme", scheme, "--param", "c", str(dest)])
    assert rc == 2
    assert out == ""
    assert match in json.loads(err)["error"]


def _replace(prefix, new):
    def edit(rows):
        return [new if row.startswith(prefix) else row for row in rows]
    return edit


def test_estimate_rejects_missing_and_repeated_cells(tmp_path):
    def drop_x1_repeat_x0(rows):
        x0 = next(row for row in rows if row.startswith("x,0,"))
        return [row for row in rows if not row.startswith("x,1,")] + [x0]

    dest = _edited_sample(tmp_path, "ts", ["--k", "3"], drop_x1_repeat_x0)
    _assert_rejected(dest, "ts", "missing or written twice")

    def repeat_rep(rows):  # in slot 0 of x, repetition 1 claims repetition 0
        out = []
        for row in rows:
            fields = row.split(",")
            if fields[:2] == ["0", "x"] and fields[4] == "1":
                fields[4] = "0"
            out.append(",".join(fields))
        return out

    dest = _edited_sample(tmp_path, "rp", ["--l", "2", "--k", "2"], repeat_rep)
    _assert_rejected(dest, "rp1", "missing or written twice")

    # a header that claims 10^11 slots is refused before any array that size
    dest.write_text(dest.read_text().replace(" l=2", " l=100000000000"))
    _assert_rejected(dest, "rp1", "missing or written twice")


def test_estimate_rejects_negative_rep_or_slot(tmp_path):
    # numpy would wrap a negative index around to a cell at the far end
    dest = _edited_sample(tmp_path, "ts", ["--k", "3"], _replace("x,0,", "x,-3,0"))
    _assert_rejected(dest, "ts", "out of range")

    def negative_slot(rows):
        return ["-2" + row[1:] if row.startswith("0,") else row for row in rows]

    dest = _edited_sample(tmp_path, "rp", ["--l", "2", "--k", "1"], negative_slot)
    _assert_rejected(dest, "rp1", "out of range")


def test_estimate_rejects_rep_beyond_k(tmp_path):
    dest = _edited_sample(tmp_path, "ts", ["--k", "3"], _replace("x,2,", "x,3,0"))
    _assert_rejected(dest, "ts", "out of range")


def test_estimate_rejects_outcome_beyond_int64(tmp_path):
    dest = _edited_sample(tmp_path, "ts", ["--k", "3"],
                          _replace("z,0,", "z,0,99999999999999999999"))
    _assert_rejected(dest, "ts", "does not fit in int64")


def test_estimate_rejects_short_rows(tmp_path):
    dest = _edited_sample(tmp_path, "ts", ["--k", "3"], _replace("x,1,", "x,1"))
    _assert_rejected(dest, "ts", "too few columns")
    dest = _edited_sample(tmp_path, "split", ["--k", "2"], _replace("x,0,1,0,first,", "x,0,1,0"))
    _assert_rejected(dest, "ap2", "too few columns")


def test_estimate_missing_file_is_io_error(tmp_path):
    rc, out, err = run(["estimate", "--scheme", "ts", "--param", "b",
                        str(tmp_path / "nope.csv")])
    assert rc == 1
    assert json.loads(err)["type"] == "FileNotFoundError"


# ---------------------------------------------------------------- variance


def test_variance_reference_cell():
    rc, out, _ = run(["variance", "--state", "dicke:10:5", "--scheme", "ts",
                      "--param", "c", "--k", "7400"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.0284, abs=5e-5)
    assert doc["samples_used"] == 22200
    assert doc["schema"] == "spinsq-variance"
    assert len(doc["config_hash"]) == 64


def test_variance_missing_budget():
    rc, out, err = run(["variance", "--state", "dicke:10:5", "--scheme", "ts",
                        "--param", "c"])
    assert rc == 2
    assert "--k" in json.loads(err)["error"]


def test_variance_out_file(tmp_path):
    dest = tmp_path / "var.json"
    rc, out, _ = run(["variance", "--state", "dicke:10:5", "--scheme", "rp2",
                      "--param", "c", "--l", "2775", "--k", "2",
                      "--out", str(dest)])
    assert rc == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["value"] == pytest.approx(25.6667, abs=5e-5)


# ---------------------------------------------------------------- samplesize


def test_samplesize_matches_library():
    rc, out, _ = run(["samplesize", "--scheme", "ts", "--param", "c", "--n", "6",
                      "--gamma", "0.9"])
    assert rc == 0
    doc = json.loads(out)
    expected = required_budget("ts", "c", 6, t=0.1 * 3, gamma=0.9)
    assert doc["budget"] == expected.budget
    assert doc["total_preparations"] == expected.total_preparations
    assert doc["gamma"] == 0.9


def test_samplesize_requires_n():
    rc, out, err = run(["samplesize", "--scheme", "ts", "--param", "c"])
    assert rc == 2
    assert "--n" in json.loads(err)["error"]


# ---------------------------------------------------------------- mc


def test_mc_deterministic_stdout():
    argv = ["mc", "--state", "dicke:6:3", "--scheme", "ts", "--param", "c",
            "--k", "40", "--trials", "30", "--seed", "5"]
    rc1, out1, _ = run(argv)
    rc2, out2, _ = run(argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 5
    assert doc["config"]["budget"] == {"k": 40}
    assert doc["schema"] == "spinsq-trialstats"


def test_mc_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("SPINSQ_SEED", "123")
    rc, out, _ = run(["mc", "--state", "dicke:6:3", "--scheme", "ts",
                      "--param", "c", "--k", "30", "--trials", "10"])
    assert json.loads(out)["seed"] == 123
    monkeypatch.setenv("SPINSQ_SEED", "oops")
    rc, out, err = run(["mc", "--state", "dicke:6:3", "--scheme", "ts",
                        "--param", "c", "--k", "30", "--trials", "10"])
    assert rc == 2


def test_mc_histogram_csv(tmp_path):
    dest = tmp_path / "hist.csv"
    rc, *_ = run(["mc", "--state", "dicke:6:3", "--scheme", "ts", "--param", "c",
                  "--k", "30", "--trials", "25", "--seed", "1",
                  "--format", "csv", "--out", str(dest), "--bins", "10"])
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("# spinsq-histogram")
    assert len(lines) == 4 + 10


@pytest.mark.parametrize("flag,value", [("--bins", "0"), ("--threads", "-3")])
def test_mc_rejects_bad_bins_and_threads(flag, value):
    rc, out, err = run(["mc", "--state", "dicke:6:3", "--scheme", "ts", "--param", "c",
                        "--k", "30", "--trials", "25", flag, value])
    assert (rc, out) == (2, "")
    assert json.loads(err)["type"] == "ValueError"


def test_mc_json_out_file(tmp_path):
    dest = tmp_path / "stats.json"
    rc, out, _ = run(["mc", "--state", "singlet:4", "--scheme", "ts",
                      "--param", "b", "--k", "20", "--trials", "10",
                      "--seed", "2", "--out", str(dest)])
    assert rc == 0
    doc = json.loads(dest.read_text())
    assert doc["mean"] == 0.0


# ---------------------------------------------------------------- sweep


def test_sweep_table2_four_decimals(tmp_path):
    dest = tmp_path / "table2.csv"
    rc, *_ = run(["sweep", "--figure", "table2", "--out", str(dest)])
    assert rc == 0
    lines = [line for line in dest.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    seen = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        seen[cells["scheme"]] = float(cells["variance"])
    assert sorted(seen) == sorted(TABLE2)
    for scheme, printed in TABLE2.items():
        assert seen[scheme] == pytest.approx(printed, abs=5e-5), scheme


def test_sweep_fig8_grid(tmp_path):
    dest = tmp_path / "fig8.csv"
    rc, *_ = run(["sweep", "--figure", "fig8", "--out", str(dest)])
    assert rc == 0
    lines = [line for line in dest.read_text().splitlines()
             if line and not line.startswith("#")]
    assert lines[0] == "scheme,p,analytic_variance"
    assert len(lines) - 1 == 5 * 11
    rows = [line.split(",") for line in lines[1:]]
    ts = {float(r[1]): float(r[2]) for r in rows if r[0] == "ts"}
    assert ts[1.0] == pytest.approx(0.0284, abs=5e-5)
    assert min(ts.values()) == ts[1.0]


def test_sweep_fig9_shape(tmp_path):
    dest = tmp_path / "fig9.csv"
    rc, *_ = run(["sweep", "--figure", "fig9", "--out", str(dest)])
    assert rc == 0
    lines = [line for line in dest.read_text().splitlines()
             if line and not line.startswith("#")]
    assert lines[0] == "scheme,n,budget,total_preparations"
    assert len(lines) - 1 == 5 * 9  # five schemes, N in 4..20


def test_sweep_requires_figure(tmp_path):
    rc, out, err = run(["sweep", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--figure" in json.loads(err)["error"]


# ---------------------------------------------------------------- config file


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nstate=dicke:6:3\nscheme=ts\nparam=c\nk=50\n")
    rc, out, _ = run(["variance", "--config", str(cfg)])
    assert rc == 0
    assert json.loads(out)["budget"] == {"k": 50}
    rc, out, _ = run(["variance", "--config", str(cfg), "--k", "99"])
    assert json.loads(out)["budget"] == {"k": 99}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    rc, out, err = run(["variance", "--config", str(cfg)])
    assert rc == 2
    assert "bogus" in json.loads(err)["error"]


def test_config_file_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just-some-text\n")
    rc, out, err = run(["variance", "--config", str(cfg)])
    assert rc == 2
    assert "key=value" in json.loads(err)["error"]


# ---------------------------------------------------------------- entry point


def test_console_entry_point():
    # the child imports the same spinsq as this process, installed or not
    src = str(Path(spinsq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from spinsq.cli import main; sys.exit(main(sys.argv[1:]))",
         "variance", "--state", "singlet:4", "--scheme", "ts", "--param", "b",
         "--k", "10"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 0.0
