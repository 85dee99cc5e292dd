import json
import subprocess
import sys

import numpy as np
import pytest

from hyplq.cli import (
    ExperimentError,
    ExperimentPlan,
    _TABLE_BLOCK,
    _heatmap_series,
    emit_plot,
    main,
    plan_from_config,
    plan_to_config,
    read_field_csv,
    read_table,
    run_experiment,
    write_field_csv,
    write_table,
)
from hyplq.geometry import Grid1D, GridFunction, TimeGrid
from hyplq.semigroup import transport_free

EQUIDISTANT = "periodic: {period: 1, pattern: [[0, 0.2]]}"


def small_config(**over):
    cfg = {
        "experiment": "space-time-field",
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": {"T": 0.5, "steps": 16},
        "velocity": {"type": "constant", "value": 2.0},
        "alpha": 0.25,
        "control_domain": {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]]}},
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
    }
    cfg.update(over)
    return cfg


# ------------------------------------------------------------------- plans


def test_plan_round_trip():
    cfg = small_config(
        experiment="domain-sweep",
        l_values=[1.0, 2.0, 3.0],
        plot=True,
        out_dir="somewhere",
    )
    plan = plan_from_config(cfg)
    again = plan_from_config(plan_to_config(plan))
    assert again == plan
    # and through an actual JSON round trip
    third = plan_from_config(json.loads(json.dumps(plan_to_config(plan))))
    assert third == plan


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_from_config(small_config(experiment="mystery"))
    with pytest.raises(ValueError):
        plan_from_config(small_config(experiment="domain-sweep", l_values=[]))
    with pytest.raises(ValueError):
        plan_from_config(small_config(experiment="alpha-sweep", alpha_values=[]))
    with pytest.raises(ValueError):
        plan_from_config(small_config(alpha=-1.0))


@pytest.mark.parametrize("command", ["solve-ocp", "sweep", "simulate"])
def test_seed_is_not_a_plan_key(tmp_path, capsys, command):
    cfg = small_config(seed=0)
    if command == "simulate":
        del cfg["experiment"]
        cfg["equation"] = "transport"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main([command, "--config", str(p), "--out", str(out)]) == 3
    assert "unknown config keys: ['seed']" in capsys.readouterr().err
    del cfg["seed"]
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p), "--out", str(out), "--seed", "1"]) == 3
    assert list(out.glob("*")) == []


def test_plan_realize_matches_grid():
    plan = plan_from_config(small_config())
    cfg = plan.realize()
    assert cfg.grid.N == 32
    assert cfg.tgrid.M == 16
    assert cfg.alpha == 0.25
    bigger = plan.realize(L=2.0)
    assert bigger.grid.N == 64
    assert bigger.grid.L == 2.0


def test_plan_cfl_default_steps():
    cfg = small_config()
    del cfg["time"]["steps"]
    plan = plan_from_config(cfg)
    base = plan.realize()
    assert base.velocity.c_max * base.tgrid.dt <= base.grid.h * (1 + 1e-12)


# ------------------------------------------------------------------ tables


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    x = np.array([0.0, 0.1, 0.2])
    y = np.array([1.0, np.e, np.pi])
    write_table(path, ["x", "y"], [x, y], {"L": 1.0, "note": "demo"})
    meta, header, cols = read_table(path)
    assert header == ["x", "y"]
    assert meta["L"] == "1.0"
    assert meta["note"] == "demo"
    assert np.array_equal(cols[0], x)
    assert np.array_equal(cols[1], y)


def _per_cell_table(header, columns, metadata):
    """The table text as formatted one cell at a time (reference format)."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    lines = ["# hyplq-table"] + [f"# {k}: {metadata[k]}" for k in sorted(metadata)]
    lines.append(",".join(header))
    for i in range(cols[0].size):
        lines.append(",".join(repr(float(c[i])) for c in cols))
    return "\n".join(lines) + "\n"


def test_table_bytes_match_per_cell_format(tmp_path):
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf, 0.1])
    # a NaN with a payload: its own bit pattern, but the same text
    odd_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)
    repeated = np.repeat(np.array([1.0 / 3.0, -0.0, 2.5]), 7)
    rng = np.random.default_rng(5)
    a = np.concatenate([special, odd_nan, repeated, rng.standard_normal(9)])
    b = np.concatenate([repeated, special[::-1], odd_nan, rng.integers(-3, 3, 9) * 0.5])
    c = np.full(a.size, -0.0)
    header, meta = ["a", "b", "c"], {"L": 2.0, "note": "x"}
    path = tmp_path / "t.csv"
    write_table(path, header, [a, b, c], meta)
    assert path.read_text() == _per_cell_table(header, [a, b, c], meta)
    _, _, cols = read_table(path)
    for got, want in zip(cols, (a, b, c)):
        finite = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), ~finite)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


def test_field_csv_round_trip_exact(tmp_path):
    grid, tgrid = Grid1D(1.0, 8), TimeGrid(0.5, 3)
    rng = np.random.default_rng(11)
    field = rng.standard_normal((tgrid.M + 1, grid.N))
    field[1, 2], field[2, 5], field[3] = -0.0, 5e-324, field[0]
    path = tmp_path / "f.csv"
    write_field_csv(path, field, grid, tgrid, {"equation": "demo"})
    t = np.repeat(tgrid.times, grid.N)
    w = np.tile(grid.nodes, tgrid.M + 1)
    meta = {"equation": "demo", "L": grid.L, "N": grid.N, "T": tgrid.T, "M": tgrid.M}
    assert path.read_text() == _per_cell_table(["t", "w", "value"], [t, w, field.ravel()], meta)
    g2, tg2, back = read_field_csv(path)
    assert (g2, tg2) == (grid, tgrid)
    assert np.array_equal(back.view(np.int64), field.view(np.int64))


def test_failed_write_leaves_no_file(tmp_path):
    # a lone surrogate cannot be encoded: the write itself raises midway
    with pytest.raises(UnicodeEncodeError):
        write_table(tmp_path / "t.csv", ["x"], [np.arange(3.0)], {"note": "\ud800"})
    assert list(tmp_path.iterdir()) == []


def test_failed_replace_keeps_old_target(tmp_path, monkeypatch):
    import hyplq.cli as cli_mod

    path = tmp_path / "t.csv"
    write_table(path, ["x"], [np.arange(3.0)], {})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli_mod.os, "replace", refuse)
    with pytest.raises(OSError):
        write_table(path, ["x"], [np.arange(5.0)], {})
    with pytest.raises(OSError):
        emit_plot([("s", np.arange(3.0), np.arange(3.0))], "line", tmp_path / "p.svg")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_bytes() == before


B = _TABLE_BLOCK


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_streamed_table_bytes_match_one_string_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    a = rng.standard_normal(rows)
    b = np.repeat(np.arange(4.0), -(-rows // 4))[:rows]
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324])
    # place the special values on both sides of the first block edge
    for k, v in enumerate(special):
        for i in (_TABLE_BLOCK - 1 - k, _TABLE_BLOCK + k, k):
            if 0 <= i < rows:
                a[i], b[rows - 1 - i] = v, v
    header, meta = ["a", "b"], {"N": rows}
    path = tmp_path / "t.csv"
    write_table(path, header, [a, b], meta)
    assert path.read_text() == _per_cell_table(header, [a, b], meta)


def test_failed_chunk_keeps_old_target(tmp_path):
    from hyplq.cli import _write_atomic

    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def chunks():
        yield "new first chunk\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        _write_atomic(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_text() == "old\n"
    with pytest.raises(TypeError):
        _write_atomic(path, "one string")
    assert path.read_text() == "old\n"


def test_emitter_failure_empties_directory(tmp_path):
    from hyplq.cli import _Emitter

    out = tmp_path / "run"
    with pytest.raises(ExperimentError):
        with _Emitter(out, "demo") as em:
            em.json_file("summary.json", {"a": 1})
            em.table("a.csv", ["x"], [np.arange(3.0)], {})
            em.table("b.csv", ["x"], [np.arange(3.0)], {"note": "\ud800"})
    assert out.is_dir()
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------- plots


def test_plot_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], "line", tmp_path / "p.svg")


def test_plot_single_polyline(tmp_path):
    path = tmp_path / "p.svg"
    emit_plot([("demo", np.array([0.0, 1.0]), np.array([2.0, 3.0]))], "line", path)
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert "demo" in svg


def test_plot_byte_stable(tmp_path):
    series = [
        ("a", np.linspace(0, 1, 7), np.sin(np.linspace(0, 1, 7))),
        ("b", np.linspace(0, 1, 7), np.cos(np.linspace(0, 1, 7))),
    ]
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    emit_plot(series, "line", p1)
    emit_plot(series, "line", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_heatmap_cells(tmp_path):
    path = tmp_path / "h.svg"
    x = np.linspace(0, 1, 8)
    rows = [(f"{t:.2f}", x, np.sin(x + t)) for t in (0.0, 0.5, 1.0)]
    emit_plot(rows, "heatmap", path)
    svg = path.read_text()
    assert svg.count("<rect") > 8


def test_plot_rejects_mismatched_series(tmp_path):
    with pytest.raises(ValueError):
        emit_plot(
            [("bad", np.array([0.0, 1.0]), np.array([1.0]))],
            "line",
            tmp_path / "p.svg",
        )


# ------------------------------------------------------------- experiments


def test_space_time_field_artifacts(tmp_path):
    plan = plan_from_config(small_config(out_dir=str(tmp_path / "run")))
    status = run_experiment(plan)
    assert status == 0
    out = tmp_path / "run"
    for name in ("x.csv", "lambda.csv", "u.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual"] < 1e-9
    grid, tgrid, field = read_field_csv(out / "x.csv")
    assert grid.N == 32
    assert tgrid.M == 16
    assert field.shape == (17, 32)
    x0 = plan.realize().x0.values
    # level 0 of the stored field is the initial state up to solver roundoff;
    # bitwise CSV fidelity is covered by the table round-trip test
    assert np.max(np.abs(field[0] - x0)) < 1e-10


def test_sliced_norms_artifacts(tmp_path):
    cfg = small_config(
        experiment="sliced-norms",
        out_dir=str(tmp_path / "run"),
        time={"T": 0.6, "steps": 24},
    )
    status = run_experiment(plan_from_config(cfg))
    assert status == 0
    out = tmp_path / "run"
    assert (out / "profile.csv").exists()
    fit = json.loads((out / "fit.json").read_text())
    assert fit["amplitude"] > 0
    # the profile is recomputable from the emitted field without re-solving
    from hyplq.analysis import time_sliced_l2

    grid, tgrid, field = read_field_csv(out / "x.csv")
    meta, header, cols = read_table(out / "profile.csv")
    prof = time_sliced_l2(field, grid, tgrid)
    assert np.array_equal(cols[1], prof.values)


def test_domain_sweep_artifacts_and_workers(tmp_path):
    cfg = small_config(
        experiment="domain-sweep",
        l_values=[1.0, 2.0, 3.0],
        grid={"L": 1.0, "nodes_per_unit": 16},
        time={"T": 0.5, "steps": 12},
        initial={"type": "bump", "width": 0.4, "center": 0.5},
    )
    cfg["out_dir"] = str(tmp_path / "serial")
    assert run_experiment(plan_from_config(cfg)) == 0
    cfg["out_dir"] = str(tmp_path / "threaded")
    assert run_experiment(plan_from_config(cfg), workers=3) == 0
    a = (tmp_path / "serial" / "reports.csv").read_bytes()
    b = (tmp_path / "threaded" / "reports.csv").read_bytes()
    assert a == b
    meta, header, cols = read_table(tmp_path / "serial" / "reports.csv")
    assert header[0] == "L"
    assert np.array_equal(cols[0], [1.0, 2.0, 3.0])
    assert "bounded" in meta


def test_alpha_sweep_ordering(tmp_path):
    cfg = small_config(
        experiment="alpha-sweep",
        alpha_values=[0.125, 0.5, 2.0],
        grid={"L": 2.0, "nodes_per_unit": 32},
        time={"T": 1.5, "steps": 48},
        initial={"type": "bump", "width": 0.8, "center": 0.6},
        out_dir=str(tmp_path / "run"),
    )
    assert run_experiment(plan_from_config(cfg)) == 0
    meta, header, cols = read_table(tmp_path / "run" / "alphas.csv")
    named = dict(zip(header, cols))
    # weaker control penalty tracks harder: final norms grow with alpha,
    # peak control strength shrinks
    assert np.all(np.diff(named["final_state_norm"]) > 0)
    assert np.all(np.diff(named["peak_control"]) < 0)


def test_stabilizability_demo_verdicts(tmp_path):
    good = small_config(experiment="stabilizability-demo", out_dir=str(tmp_path / "g"))
    assert run_experiment(plan_from_config(good)) == 0
    report = json.loads((tmp_path / "g" / "verdict.json").read_text())
    assert report["stabilizable"] is True
    assert report["k"] > 0

    bad = small_config(
        experiment="stabilizability-demo",
        control_domain={"finite": [[0.0, 0.2]]},
        out_dir=str(tmp_path / "b"),
    )
    assert run_experiment(plan_from_config(bad)) == 1
    report = json.loads((tmp_path / "b" / "verdict.json").read_text())
    assert report["stabilizable"] is False
    assert report["reason"] == "finite-measure"


def test_partial_outputs_removed(tmp_path, monkeypatch):
    import hyplq.cli as cli_mod

    def boom(*a, **k):
        raise RuntimeError("plot backend exploded")

    monkeypatch.setattr(cli_mod, "emit_plot", boom)
    plan = plan_from_config(small_config(plot=True, out_dir=str(tmp_path / "run")))
    with pytest.raises(ExperimentError):
        run_experiment(plan)
    leftovers = list((tmp_path / "run").glob("*"))
    assert leftovers == []


@pytest.mark.parametrize(
    "residual, bad_x", [(np.nan, False), (np.inf, False), (0.0, True)]
)
def test_non_finite_solve_exits_2(tmp_path, monkeypatch, residual, bad_x):
    import hyplq.cli as cli_mod
    from hyplq.ocp import OCPSolution

    def fake_solve(cfg):
        shape = (cfg.tgrid.M + 1, cfg.grid.N)
        x = np.full(shape, np.nan) if bad_x else np.zeros(shape)
        return OCPSolution(
            x=x,
            lam=np.zeros(shape),
            u=np.zeros(shape),
            objective=0.0,
            residual=residual,
            ordering="nested-dissection",
        )

    monkeypatch.setattr(cli_mod, "solve_ocp", fake_solve)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_config()))
    out = tmp_path / "run"
    assert main(["solve-ocp", "--config", str(p), "--out", str(out)]) == 2
    assert list(out.glob("*")) == []


# ------------------------------------------------------------- subcommands


def test_check_domain_pass(capsys):
    code = main(["check-domain", "--domain", EQUIDISTANT, "--k", "1", "--K", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stabilizable: yes" in out


def test_check_domain_fail_reason(capsys):
    code = main(["check-domain", "--domain", "finite: [[0, 0.2]]"])
    out = capsys.readouterr().out
    assert code == 1
    assert "finite-measure" in out


def test_check_domain_bad_text(capsys):
    assert main(["check-domain", "--domain", "garbage"]) == 3


def test_check_domain_config_file(tmp_path, capsys):
    p = tmp_path / "dom.json"
    p.write_text(json.dumps({"control_domain": {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]]}}}))
    assert main(["check-domain", "--config", str(p)]) == 0


@pytest.mark.parametrize(
    "layout, reason",
    [
        ({"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]]}}, None),
        ({"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "start": 0.3}}, "first-interval-offset"),
        ({"finite": [[0.0, 0.2], [1.0, 1.2]]}, "finite-measure"),
        # one interval, then a long gap before the tail: no (k, K) certifies
        # it, and at k = 1, K = 2 the tail density 0.2 < k / K
        (
            {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "prefix": [[0.0, 0.2]], "start": 200.0}},
            "density-deficit",
        ),
    ],
    ids=["certified", "offset-start", "finite-prefix", "density-deficit"],
)
def test_check_domain_agrees_with_stabilizability_demo(tmp_path, capsys, layout, reason):
    dom_file = tmp_path / "dom.json"
    dom_file.write_text(json.dumps({"control_domain": layout}))
    code = main(["check-domain", "--config", str(dom_file)])
    printed = capsys.readouterr().out.strip()

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(small_config(experiment="stabilizability-demo", control_domain=layout)))
    out = tmp_path / "demo"
    assert main(["sweep", "--config", str(plan_file), "--out", str(out)]) == code
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["reason"] == reason
    assert code == (0 if reason is None else 1)
    if reason is None:
        assert verdict["stabilizable"] is True
        assert printed == (
            f"stabilizable: yes (k={verdict['k']:.6g}, K={verdict['K']:.6g}, M={verdict['M']:.6g})"
        )
    else:
        assert verdict["stabilizable"] is False
        assert printed == f"stabilizable: no ({reason})"


def test_check_domain_plan_without_layout_uses_plan_default(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"experiment": "stabilizability-demo", "alpha": 0.5}))
    code = main(["check-domain", "--config", str(plan_file)])
    printed = capsys.readouterr().out.strip()
    out = tmp_path / "demo"
    assert main(["sweep", "--config", str(plan_file), "--out", str(out)]) == code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["stabilizable"] is True
    assert printed == (
        f"stabilizable: yes (k={verdict['k']:.6g}, K={verdict['K']:.6g}, M={verdict['M']:.6g})"
    )


def test_solve_ocp_subcommand(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_config()))
    out = tmp_path / "run"
    code = main(["solve-ocp", "--config", str(p), "--out", str(out)])
    assert code == 0
    assert (out / "x.csv").exists()
    assert "objective" in capsys.readouterr().out


def test_sweep_subcommand(tmp_path):
    cfg = small_config(
        experiment="domain-sweep",
        l_values=[1.0, 2.0, 3.0],
        grid={"L": 1.0, "nodes_per_unit": 16},
        time={"T": 0.5, "steps": 12},
    )
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(p), "--out", str(out), "--workers", "2"])
    assert code == 0
    assert (out / "reports.csv").exists()


def test_simulate_transport_exact(tmp_path):
    cfg = {
        "equation": "transport",
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": {"T": 0.25, "steps": 8},
        "velocity": {"type": "constant", "value": 2.0},
        "control_domain": {"finite": []},
        "initial": {"type": "sine", "mode": 1},
        "feedback_gain": 0.0,
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    grid, tgrid, field = read_field_csv(out / "field.csv")
    x0 = GridFunction(grid, np.sin(2 * np.pi * grid.nodes))
    for m in (0, 4, 8):
        want = transport_free(x0, tgrid.times[m], 2.0, 1.0).values
        assert np.array_equal(field[m], want)


def test_simulate_wave(tmp_path):
    cfg = {
        "equation": "wave",
        "grid": {"L": 1.0, "nodes_per_unit": 64},
        "time": {"T": 0.5, "steps": 8},
        "velocity": {"type": "constant", "value": 1.0},
        "control_domain": {"finite": [[0.0, 0.2]]},
        "initial": {"type": "bump", "width": 0.4, "center": 0.5},
        "feedback_gain": 0.5,
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    grid, tgrid, disp = read_field_csv(out / "displacement.csv")
    assert (out / "velocity.csv").exists()
    assert np.max(np.abs(disp[:, 0])) < 1e-10


def test_simulate_failure_removes_partial_outputs(tmp_path, monkeypatch):
    import hyplq.cli as cli_mod

    # the wave run writes displacement.csv, then fails on velocity.csv
    real_field = cli_mod.write_field_csv

    def second_write_fails(path, *a, **k):
        if path.name == "velocity.csv":
            raise OSError("disk full")
        real_field(path, *a, **k)

    monkeypatch.setattr(cli_mod, "write_field_csv", second_write_fails)
    cfg = {
        "equation": "wave",
        "grid": {"L": 1.0, "nodes_per_unit": 16},
        "time": {"T": 0.25, "steps": 2},
        "velocity": {"type": "constant", "value": 1.0},
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert out.is_dir()
    assert list(out.glob("*")) == []


def test_simulate_defaults_free_transport_on_cfl_steps(tmp_path):
    # no control_domain, feedback_gain or time.steps: simulate's own defaults
    # give the free evolution, on the c_max * dt <= h step count
    cfg = {
        "equation": "transport",
        "grid": {"L": 1.0, "nodes_per_unit": 32},
        "time": {"T": 0.25},
        "velocity": {"type": "constant", "value": 2.0},
        "initial": {"type": "sine", "mode": 1},
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    meta, _, _ = read_table(out / "field.csv")
    assert meta["feedback_gain"] == "0.0"
    grid, tgrid, field = read_field_csv(out / "field.csv")
    assert tgrid.M == 16  # ceil(T * c / h) = ceil(0.25 * 2 * 32)
    x0 = GridFunction(grid, np.sin(2 * np.pi * grid.nodes))
    for m in range(tgrid.M + 1):
        want = transport_free(x0, tgrid.times[m], 2.0, 1.0).values
        assert np.array_equal(field[m], want)


@pytest.mark.parametrize("equation", ["transport", "transport-var", "continuity", "wave"])
def test_simulate_memory_preflight_exits_2_without_files(tmp_path, capsys, monkeypatch, equation):
    import hyplq.cli as cli_mod

    velocity = {"type": "constant", "value": 2.0}
    if equation in ("transport-var", "continuity"):
        velocity = {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5}
    cfg = {
        "equation": equation,
        "grid": {"L": 1.0, "nodes_per_unit": 16},
        "time": {"T": 0.25, "steps": 2},
        "velocity": velocity,
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    monkeypatch.setattr(cli_mod, "_mem_available", lambda: 1 << 20)
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert "MiB is available" in capsys.readouterr().err
    assert not out.exists()
    # an unreadable meminfo skips the check
    monkeypatch.setattr(cli_mod, "_mem_available", lambda: None)
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0


def test_mem_available_unreadable_is_none(monkeypatch):
    import hyplq.cli as cli_mod

    def refuse(*args, **kwargs):
        raise PermissionError("no meminfo")

    monkeypatch.setattr(cli_mod, "open", refuse, raising=False)
    assert cli_mod._mem_available() is None


@pytest.mark.parametrize("equation", ["transport", "wave"])
def test_simulate_constant_speed_equation_rejects_variable_velocity(tmp_path, capsys, equation):
    cfg = {
        "equation": equation,
        "grid": {"L": 1.0, "nodes_per_unit": 16},
        "time": {"T": 0.25, "steps": 2},
        "velocity": {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5},
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 3
    assert "constant velocity" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_decay_fit_subcommand(tmp_path, capsys):
    grid = Grid1D(1.0, 64)
    y = 3.0 * np.exp(-2.0 * np.abs(0.5 - grid.nodes))
    path = tmp_path / "profile.csv"
    write_table(path, ["w", "value"], [grid.nodes, y], {"L": 1.0, "N": 64})
    rep = tmp_path / "fit.json"
    code = main(["decay-fit", "--in", str(path), "--center", "0.5", "--out", str(rep)])
    assert code == 0
    fit = json.loads(rep.read_text())
    assert fit["rate"] == pytest.approx(2.0, rel=1e-8)
    assert fit["amplitude"] == pytest.approx(3.0, rel=1e-8)


def test_decay_fit_insufficient(tmp_path):
    grid = Grid1D(1.0, 16)
    y = np.zeros(16)
    y[0] = 1.0
    path = tmp_path / "profile.csv"
    write_table(path, ["w", "value"], [grid.nodes, y], {"L": 1.0, "N": 16})
    assert main(["decay-fit", "--in", str(path), "--center", "0.0"]) == 2


def test_plot_subcommand_line(tmp_path):
    path = tmp_path / "data.csv"
    x = np.linspace(0, 1, 9)
    write_table(path, ["x", "f"], [x, x**2], {})
    out = tmp_path / "plot.svg"
    assert main(["plot", "--in", str(path), "--style", "line", "--out", str(out)]) == 0
    again = tmp_path / "plot2.svg"
    assert main(["plot", "--in", str(path), "--style", "line", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_plot_subcommand_heatmap(tmp_path):
    grid = Grid1D(1.0, 16)
    tgrid = TimeGrid(0.5, 4)
    cfg = {
        "equation": "transport",
        "grid": {"L": 1.0, "nodes_per_unit": 16},
        "time": {"T": 0.5, "steps": 4},
        "velocity": {"type": "constant", "value": 1.0},
        "control_domain": {"finite": []},
        "initial": {"type": "sine", "mode": 1},
    }
    p = tmp_path / "sim.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    svg = tmp_path / "field.svg"
    code = main(["plot", "--in", str(out / "field.csv"), "--style", "heatmap", "--out", str(svg)])
    assert code == 0
    assert "<rect" in svg.read_text()


def test_plot_heatmap_of_solved_field_matches_library(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_config()))
    out = tmp_path / "run"
    assert main(["solve-ocp", "--config", str(p), "--out", str(out)]) == 0
    svg = tmp_path / "cli.svg"
    assert main(["plot", "--in", str(out / "x.csv"), "--style", "heatmap", "--out", str(svg)]) == 0
    want = tmp_path / "lib.svg"
    emit_plot(_heatmap_series(*read_field_csv(out / "x.csv")), "heatmap", want)
    assert svg.read_bytes() == want.read_bytes()


def test_missing_config_is_config_error(tmp_path):
    assert main(["solve-ocp", "--config", str(tmp_path / "nope.json")]) == 3


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve-ocp", "--config", str(p)]) == 3


@pytest.mark.parametrize("command", ["solve-ocp", "sweep", "simulate", "check-domain"])
def test_non_object_config_is_config_error(tmp_path, capsys, command):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main([command, "--config", str(p)]) == 3
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("solve-ocp", small_config(grid=5)),
        ("sweep", small_config(velocity={"type": "constant"})),
        ("simulate", {"equation": "wave", "time": [1.0]}),
        ("check-domain", {"control_domain": {"finite": 5}}),
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, command, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p)]) == 3
    assert "config error" in capsys.readouterr().err


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 3


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hyplq", "check-domain", "--domain", EQUIDISTANT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stabilizable: yes" in proc.stdout
