import json
import math
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplq.cli import (
    ExperimentError,
    ExperimentPlan,
    _HEAT_STOPS,
    _PLAN_DEFAULTS,
    _SIMULATE_DEFAULTS,
    _TABLE_BLOCK,
    _TABLE_ROW_BYTES,
    _float_texts,
    _heat_colors,
    _heatmap_series,
    _shortest_digits,
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
from hyplq.ocp import solve_bytes
from hyplq.semigroup import FeedbackProfile, levels_per_block, transport_free, wave_levels

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
        del cfg["experiment"], cfg["alpha"]
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


def _check_streamed_table(path, rows, ncols):
    rng = np.random.default_rng(rows)
    a = rng.standard_normal(rows)
    b = np.repeat(np.arange(4.0), -(-rows // 4))[:rows]
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324])
    # place the special values on both sides of the first block edge
    for k, v in enumerate(special):
        for i in (_TABLE_BLOCK - 1 - k, _TABLE_BLOCK + k, k):
            if 0 <= i < rows:
                a[i], b[rows - 1 - i] = v, v
    header, cols, meta = ["a", "b"][:ncols], [a, b][:ncols], {"N": rows}
    write_table(path, header, cols, meta)
    assert path.read_text() == _per_cell_table(header, cols, meta)
    _, back_header, back = read_table(path)
    assert back_header == header
    for got, want in zip(back, cols):
        assert got.shape == (rows,)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_streamed_table_bytes_match_one_string_format(tmp_path, rows):
    _check_streamed_table(tmp_path / "t.csv", rows, ncols=2)


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1])
def test_streamed_one_column_table_bytes_match_one_string_format(tmp_path, rows):
    _check_streamed_table(tmp_path / "t.csv", rows, ncols=1)


# every special text a float column can carry, with a second NaN bit pattern
INDEXED_VALUES = np.array(
    [-0.0, 0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, 0.1, -2.5, 1e308]
)


def _index(rows):
    """A repeating, non-monotone position into INDEXED_VALUES per row."""
    return (3 * rows + rows // 7) % INDEXED_VALUES.size


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_indexed_columns_write_the_expanded_table_bytes(tmp_path, rows):
    plain = np.random.default_rng(rows).standard_normal(rows)
    plain[: min(rows, 3)] = [-0.0, np.nan, -np.inf][: min(rows, 3)]
    flipped = INDEXED_VALUES[::-1].copy()
    expanded = [INDEXED_VALUES[_index(np.arange(rows))], plain, flipped[np.arange(rows) % flipped.size]]
    indexed = [(INDEXED_VALUES, _index), plain, (flipped, lambda r: r % flipped.size)]
    header, meta = ["a", "x", "b"], {"N": rows}
    write_table(tmp_path / "expanded.csv", header, expanded, meta)
    write_table(tmp_path / "indexed.csv", header, indexed, meta)
    assert (tmp_path / "indexed.csv").read_bytes() == (tmp_path / "expanded.csv").read_bytes()


def test_field_table_bytes_match_expanded_axes(tmp_path):
    # 1030 levels of 64 nodes: 65920 rows, past two table blocks
    grid, tgrid = Grid1D(1.0, 64), TimeGrid(2.0, 1029)
    field = np.random.default_rng(3).standard_normal((tgrid.M + 1, grid.N))
    field[0, :4] = [-0.0, np.nan, np.inf, -np.inf]
    write_field_csv(tmp_path / "field.csv", field, grid, tgrid, {"equation": "demo"})
    axes = [np.repeat(tgrid.times, grid.N), np.tile(grid.nodes, tgrid.M + 1), field.ravel()]
    meta = {"equation": "demo", "L": grid.L, "N": grid.N, "T": tgrid.T, "M": tgrid.M}
    write_table(tmp_path / "expanded.csv", ["t", "w", "value"], axes, meta)
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "expanded.csv").read_bytes()


# ------------------------------------------------------------- float text


def _left_to_repr(x):
    """Where _float_texts writes repr's own text instead of its digits."""
    regular = np.isfinite(x) & (x != 0)
    return ~regular | _shortest_digits(np.where(regular, np.abs(x), 1.0))[3]


def _assert_repr_texts(x):
    x = np.asarray(x, dtype=np.float64).ravel()
    assert _float_texts(x).tolist() == [repr(v) for v in x.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))  # NaN, inf and subnormals included
def test_float_texts_match_repr_on_any_floats(values):
    _assert_repr_texts(np.array(values))


def test_float_texts_match_repr_on_a_million_bit_patterns():
    rng = np.random.default_rng(26)
    bits = rng.integers(-(2**63), 2**63, size=2**20, dtype=np.int64, endpoint=False)
    _assert_repr_texts(bits.view(np.float64))


def _float_class(name, rng):
    n = 40_000
    if name == "normals":
        return rng.standard_normal(n)
    if name == "exponents 1e-320 to 1e300":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320, 300, n)
    if name == "decimals rounded to 0-11 places":
        return np.concatenate([np.round(rng.uniform(-1e4, 1e4, n // 12), d) for d in range(12)])
    if name == "integers up to 2^60":
        return rng.integers(-(2**60), 2**60, n).astype(np.float64)
    if name == "powers of two and neighbours":
        p = 2.0 ** np.arange(-1074, 1024)
        return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])
    if name == "subnormals":
        return rng.integers(1, 2**52, n).view(np.float64) * rng.choice([-1.0, 1.0], n)
    if name == "d 10^e":
        digits, exps = rng.integers(1, 10**6, n), rng.integers(-330, 310, n)
        return np.array([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exps.tolist())])
    if name == "zeros, NaN and inf":
        payload = np.array([0x7FF8000000000001, -0x7FFFFFFFFFFFF, 0x7FF0000000000001], dtype=np.int64)
        return np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], payload.view(np.float64)])
    raise ValueError(name)


FLOAT_CLASSES = [
    "normals",
    "exponents 1e-320 to 1e300",
    "decimals rounded to 0-11 places",
    "integers up to 2^60",
    "powers of two and neighbours",
    "subnormals",
    "d 10^e",
    "zeros, NaN and inf",
]


@pytest.mark.parametrize("name", FLOAT_CLASSES)
def test_float_texts_match_repr_on_each_class(name):
    _assert_repr_texts(_float_class(name, np.random.default_rng(len(name))))


@pytest.mark.parametrize("name", ["normals", "decimals rounded to 0-11 places"])
def test_float_texts_write_ordinary_values_without_repr(name):
    x = _float_class(name, np.random.default_rng(len(name)))
    assert not _left_to_repr(x[x != 0]).any()


@pytest.mark.parametrize("name", ["integers from 2^53", "powers of two", "subnormals", "NaN payloads"])
def test_values_left_to_repr_get_repr_text(name):
    rng = np.random.default_rng(len(name))
    x = {
        "integers from 2^53": (2**53 + rng.integers(0, 2**60, 20_000)).astype(np.float64),
        "powers of two": 2.0 ** np.arange(-1074, 1024),
        "subnormals": rng.integers(1, 2**52, 20_000).view(np.float64),
        "NaN payloads": _float_class("zeros, NaN and inf", rng)[-3:],
    }[name]
    left = _left_to_repr(x)
    assert left.any()
    _assert_repr_texts(x[left])
    _assert_repr_texts(x)


def test_kernel_tables_are_built_once_and_read_only_under_threads():
    import threading

    import hyplq.cli as cli_mod

    cli_mod._ten_powers.cache_clear()
    cli_mod._text_tables.cache_clear()
    rng = np.random.default_rng(29)
    edges = np.linspace(-320, 300, 9)  # one exponent range per thread
    chunks = [rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(lo, hi, 5000) for lo, hi in zip(edges, edges[1:])]
    texts = [None] * len(chunks)
    start = threading.Barrier(len(chunks), timeout=60)

    def run(i):
        start.wait()
        texts[i] = _float_texts(chunks[i]).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(chunks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for x, text in zip(chunks, texts):
        assert text == [repr(v) for v in x.tolist()]
    assert cli_mod._ten_powers().shape == (3, 635)
    for table in (cli_mod._ten_powers(), *cli_mod._text_tables()):
        with pytest.raises(ValueError):
            table[0] = 0


def test_two_block_wave_table_writes_within_the_row_estimate(tmp_path):
    import tracemalloc

    # the wave at CLI defaults (L = 4, 512 nodes, c dt = h, T = 5); its last
    # two table blocks of levels, where it has spread over the whole ring
    plan = plan_from_config(dict(_SIMULATE_DEFAULTS))
    cfg = plan.realize()
    grid, tgrid = cfg.grid, cfg.tgrid
    fb = FeedbackProfile(plan.control_domain, plan.feedback_gain)
    fields = wave_levels(cfg.x0, GridFunction(grid, np.zeros(grid.N)), tgrid.times, plan.velocity[1], fb, grid.L)
    levels = 2 * _TABLE_BLOCK // grid.N
    last = TimeGrid(tgrid.dt * (levels - 1), levels - 1)
    for field in fields:
        block = np.ascontiguousarray(field[-levels:])
        write_field_csv(tmp_path / "warm.csv", block, grid, last, {})  # fills the formatter's tables
        tracemalloc.start()
        try:
            write_field_csv(tmp_path / "wave.csv", block, grid, last, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _TABLE_ROW_BYTES * _TABLE_BLOCK


def test_table_of_indexed_columns_alone_is_refused(tmp_path):
    with pytest.raises(ValueError, match="one float array"):
        write_table(tmp_path / "t.csv", ["a"], [(INDEXED_VALUES, _index)], {})
    assert not (tmp_path / "t.csv").exists()


def test_read_table_round_trips_extreme_values_bit_exact(tmp_path):
    x = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf])
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [x], {})
    _, _, (back,) = read_table(path)
    assert np.array_equal(back.view(np.int64), x.view(np.int64))


def _table_text(path, text):
    path.write_text(text)
    return read_table(path)


def test_read_table_skips_blank_lines_and_reads_metadata_anywhere(tmp_path):
    text = "# hyplq-table\n# a: 1\n\nx,y\n1.0,2.0\n   \n\t\n# b: two: 2\n3.0, 4.0\n  # c: 3\n# no colon\n\n"
    meta, header, cols = _table_text(tmp_path / "t.csv", text)
    assert meta == {"a": "1", "b": "two: 2", "c": "3"}
    assert header == ["x", "y"]
    assert [c.tolist() for c in cols] == [[1.0, 3.0], [2.0, 4.0]]


def test_read_table_accepts_nan_and_inf_tokens(tmp_path):
    _, _, (x,) = _table_text(tmp_path / "t.csv", "x\nnan\ninf\n-inf\n")
    assert np.isnan(x[0]) and x[1:].tolist() == [np.inf, -np.inf]


def test_read_table_zero_rows_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x", "y"], [np.empty(0), np.empty(0)], {"N": 0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        meta, header, cols = read_table(path)
        assert _table_text(tmp_path / "u.csv", "x\n\n  \n")[2][0].shape == (0,)
    assert (meta, header) == ({"N": "0"}, ["x", "y"])
    assert [c.shape for c in cols] == [(0,), (0,)]


@pytest.mark.parametrize(
    "text",
    [
        "x,y\n1.0,2.0\n3.0\n",  # ragged row
        "x,y\n1.0,2.0,3.0\n",  # every row wider than the header
        "x,y\n1.0,\n",  # empty cell
        "x\n1_0\n",  # Python's float() takes this, the table does not
        "x\n1.0 # trailing\n",
        "# only comments\n\n",
    ],
)
def test_read_table_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        _table_text(path, text)
    out = tmp_path / "p.svg"
    assert main(["plot", "--in", str(path), "--style", "line", "--out", str(out)]) == 3
    assert not out.exists()


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
    assert not out.exists()


def test_emitter_failure_removes_only_directories_it_made(tmp_path):
    from hyplq.cli import _Emitter

    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "old.txt").write_text("old\n")
    out = kept / "a" / "b"
    with pytest.raises(ExperimentError):
        with _Emitter(out, "demo") as em:
            em.json_file("summary.json", {"a": 1})
            raise ValueError("late failure")
    # the parents that mkdir(parents=True) made go too, the older one stays
    assert not (kept / "a").exists()
    assert sorted(p.name for p in kept.iterdir()) == ["old.txt"]

    # an output directory that existed before the run is emptied, not removed
    with pytest.raises(ExperimentError):
        with _Emitter(kept, "demo") as em:
            em.json_file("summary.json", {"a": 1})
            raise ValueError("late failure")
    assert sorted(p.name for p in kept.iterdir()) == ["old.txt"]


def test_emitter_failure_before_any_file_leaves_no_directory(tmp_path):
    from hyplq.cli import _Emitter

    out = tmp_path / "run" / "nested"
    with pytest.raises(ExperimentError, match="demo failed: no artifact yet"):
        with _Emitter(out, "demo"):
            raise ValueError("no artifact yet")
    assert not (tmp_path / "run").exists()


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


def _per_cell_heat_color(v):
    """The colour of one heatmap cell as computed one cell at a time (reference)."""
    pos = min(max(v, 0.0), 1.0) * (len(_HEAT_STOPS) - 1)
    i = min(int(pos), len(_HEAT_STOPS) - 2)
    fr = pos - i
    rgb = tuple(
        int(round(255 * ((1 - fr) * a + fr * b))) for a, b in zip(_HEAT_STOPS[i], _HEAT_STOPS[i + 1])
    )
    return "#%02x%02x%02x" % rgb


def _per_cell_heatmap_rects(series):
    """The <rect> lines of a heatmap as rendered one cell at a time (reference)."""
    from hyplq.cli import _H, _MB, _ML, _MR, _MT, _W, _fmt

    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    vals = np.array([y for _, _, y in series], dtype=float)
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    span = vmax - vmin if vmax > vmin else 1.0
    ncols, nrows = vals.shape[1], len(series)
    cw, ch = pw / ncols, ph / nrows
    rects = []
    for r, (_, _, y) in enumerate(series):
        cy = _H - _MB - (r + 1) * ch
        for q in range(ncols):
            color = _per_cell_heat_color((float(y[q]) - vmin) / span)
            rects.append(
                f'<rect x="{_fmt(_ML + q * cw)}" y="{_fmt(cy)}" '
                f'width="{_fmt(cw + 0.5)}" height="{_fmt(ch + 0.5)}" fill="{color}"/>'
            )
    return rects


def _rounding_ties(limit=40):
    """Values v in (0, 1) whose colour channel is exactly k + 1/2 before rounding."""
    ties = []
    for i, (lo, hi) in enumerate(zip(_HEAT_STOPS, _HEAT_STOPS[1:])):
        for a, b in zip(lo, hi):
            if a == b:
                continue
            for k in range(int(255 * min(a, b)), int(255 * max(a, b)) + 1):
                fr = ((k + 0.5) / 255 - a) / (b - a)
                if not 0 < fr < 1:
                    continue
                for d in range(-8, 9):  # a few ulps around the exact solution
                    v = (i + fr) / 6 + d * 2.0**-53
                    f = v * 6 - i
                    if int(v * 6) == i and 255 * ((1 - f) * a + f * b) == k + 0.5:
                        ties.append((v, k))
    return ties[:limit]


def _heat_case(name):
    x = np.linspace(0.0, 1.0, 7)
    rng = np.random.default_rng(3)
    if name == "stops":
        return [("stops", x, np.arange(7) / 6)]
    if name == "ties":
        ties = [v for v, _ in _rounding_ties()]
        return [("ties", np.arange(len(ties) + 2.0), np.array([0.0, 1.0] + ties))]
    if name == "constant":
        return [(f"{r}", x, np.full(7, 2.5)) for r in range(3)]
    if name == "1x1":
        return [("one", np.array([0.5]), np.array([-3.0]))]
    if name == "1xn":
        return [("row", x, rng.standard_normal(7))]
    if name == "nx1":
        return [(f"{r}", np.array([0.0]), rng.standard_normal(1)) for r in range(5)]
    return [(f"{r}", x, rng.standard_normal(7) * 1e-3 - 4.0) for r in range(4)]


@pytest.mark.parametrize("case", ["stops", "ties", "constant", "1x1", "1xn", "nx1", "random"])
def test_heatmap_cells_match_per_cell_renderer(tmp_path, case):
    series = _heat_case(case)
    path = tmp_path / "h.svg"
    emit_plot(series, "heatmap", path)
    rects = _per_cell_heatmap_rects(series)
    svg = path.read_text()
    assert svg.endswith("\n".join(rects) + "\n</svg>\n")
    assert svg.count("<rect x=") == len(rects) == sum(y.size for _, _, y in series)


def test_rounding_ties_round_half_to_even():
    ties = _rounding_ties(limit=1000)
    assert {k % 2 for _, k in ties} == {0, 1}  # both directions of a tie are exercised
    v = np.array([t for t, _ in ties])
    assert _heat_colors(v).tolist() == [_per_cell_heat_color(t) for t in v.tolist()]


def test_heat_colors_match_per_cell_reference_with_clamping():
    rng = np.random.default_rng(9)
    v = np.concatenate([[-1.0, -0.0, 0.0, 1.0, 2.0, np.nextafter(1.0, 0.0)], np.arange(7) / 6, rng.random(501)])
    assert _heat_colors(v).tolist() == [_per_cell_heat_color(t) for t in v.tolist()]
    assert _heat_colors(v.reshape(2, -1)).tolist() == _heat_colors(v).reshape(2, -1).tolist()


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


# experiment, its extra plan keys, its plot and the plot's labels and title
PLOTTED_EXPERIMENTS = {
    "sliced-norms": ({"time": {"T": 0.6, "steps": 24}}, "profile.svg", ("w", "L2 over time", "per-node time norm")),
    "domain-sweep": (
        {"l_values": [1.0, 2.0, 3.0], "grid": {"L": 1.0, "nodes_per_unit": 16}, "time": {"T": 0.5, "steps": 12}},
        "reports.svg",
        ("L", "weighted norm", "domain sweep"),
    ),
    "alpha-sweep": ({"alpha_values": [0.125, 0.5, 2.0]}, "alphas.svg", ("alpha", "value", "control weight sweep")),
}


@pytest.mark.parametrize("experiment", PLOTTED_EXPERIMENTS)
def test_experiment_plots_are_byte_stable_and_labeled(tmp_path, experiment):
    over, name, texts = PLOTTED_EXPERIMENTS[experiment]
    runs = []
    for run in ("a", "b"):
        cfg = small_config(experiment=experiment, plot=True, out_dir=str(tmp_path / run), **over)
        assert run_experiment(plan_from_config(cfg)) == 0
        runs.append((tmp_path / run / name).read_bytes())
    assert runs[0] == runs[1]
    svg = runs[0].decode()
    assert svg.startswith("<svg") and "<polyline" in svg
    for text in texts:
        assert f">{text}</text>" in svg


def test_domain_sweep_of_two_sizes_is_an_insufficient_family(tmp_path):
    cfg = small_config(
        experiment="domain-sweep",
        l_values=[1.0, 2.0],
        grid={"L": 1.0, "nodes_per_unit": 16},
        time={"T": 0.5, "steps": 12},
        out_dir=str(tmp_path / "run"),
    )
    assert run_experiment(plan_from_config(cfg)) == 0
    meta, _, cols = read_table(tmp_path / "run" / "reports.csv")
    assert meta["bounded"] == "insufficient-family"
    assert "trend" not in meta
    assert np.array_equal(cols[0], [1.0, 2.0])


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

    def fake_solve(cfg, plan):
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
    assert not out.exists()


def test_sliced_norms_whose_fit_fails_exits_2_without_directory(tmp_path, capsys):
    # zero initial data: the optimal state is zero and no node clears the fit's floor
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_config(experiment="sliced-norms", initial={"type": "zero"})))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert "nodes above the floor" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- sweep pool


def sweep_config(kind, out, **over):
    """A small domain or alpha sweep whose members differ in size or weight."""
    lists = {"domain-sweep": {"l_values": [1.0, 2.0, 3.0]}, "alpha-sweep": {"alpha_values": [0.125, 0.5, 2.0]}}
    cfg = small_config(
        experiment=kind,
        grid={"L": 1.0, "nodes_per_unit": 16},
        time={"T": 0.5, "steps": 12},
        velocity={"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5},
        out_dir=str(out),
        **lists.get(kind, {}),
    )
    cfg.update(over)
    return cfg


def serial_sweep_table(plan, path):
    """The sweep's table from per-member solves run one after another."""
    from hyplq.analysis import fit_decay_rate, localization_certificate, time_sliced_l2, weighted_spacetime_norms
    from hyplq.geometry import ExpWeight
    from hyplq.ocp import solve_ocp

    if plan.experiment == "alpha-sweep":
        cfgs = [plan.realize(alpha=a) for a in plan.alpha_values]
        sols = [solve_ocp(c) for c in cfgs]
        rows = [
            (s.objective, GridFunction(c.grid, s.x[-1]).l2_norm(), float(np.max(np.abs(s.u))))
            for c, s in zip(cfgs, sols)
        ]
        write_table(
            path,
            ["alpha", "objective", "final_state_norm", "peak_control"],
            [np.array(plan.alpha_values)] + [np.array([r[j] for r in rows]) for j in range(3)],
            {"experiment": plan.experiment, "T": plan.T, "L": plan.L},
        )
        return
    cfgs = [plan.realize(L=L) for L in plan.l_values]
    sols = [solve_ocp(c) for c in cfgs]
    center = plan.initial[2]
    fit = fit_decay_rate(time_sliced_l2(sols[0].x, cfgs[0].grid, cfgs[0].tgrid), center, floor=1e-8)
    mu = max(0.0, fit.rate)
    weight = ExpWeight(center=center, mu=mu)
    reports = [weighted_spacetime_norms(s.x, weight, c.grid, c.tgrid) for c, s in zip(cfgs, sols)]
    cert = localization_certificate(list(zip(plan.l_values, reports)), mu)
    meta = {"experiment": plan.experiment, "mu": mu, "fit_center": center, "alpha": plan.alpha, "T": plan.T}
    meta.update({"bounded": cert.bounded, "trend": cert.trend, "sup": cert.sup})
    names = ["l2l2", "cl2", "two_and_inf", "one_or_two"]
    write_table(
        path,
        ["L"] + names,
        [np.array(plan.l_values)] + [np.array([getattr(r, n) for r in reports]) for n in names],
        meta,
    )


@pytest.mark.parametrize("kind, table", [("domain-sweep", "reports.csv"), ("alpha-sweep", "alphas.csv")])
def test_sweep_tables_match_serial_reference_for_every_pool_width(tmp_path, kind, table):
    reference = tmp_path / "reference.csv"
    serial_sweep_table(plan_from_config(sweep_config(kind, tmp_path)), reference)
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert run_experiment(plan_from_config(sweep_config(kind, out)), workers=workers) == 0
        assert (out / table).read_bytes() == reference.read_bytes()


def test_sweep_submits_largest_first_with_ties_in_input_order(tmp_path, monkeypatch):
    import hyplq.cli as cli_mod

    started = []
    real = cli_mod._solve_gate

    def gate(cfg, tol, plan):
        started.append((cfg.grid.L, cfg.alpha))
        return real(cfg, tol, plan)

    monkeypatch.setattr(cli_mod, "_solve_gate", gate)
    # one worker runs the members in the order they were submitted
    assert run_experiment(plan_from_config(sweep_config("domain-sweep", tmp_path / "d")), workers=1) == 0
    assert [L for L, _ in started] == [3.0, 2.0, 1.0]
    started.clear()
    assert run_experiment(plan_from_config(sweep_config("alpha-sweep", tmp_path / "a")), workers=1) == 0
    assert [a for _, a in started] == [0.125, 0.5, 2.0]


@pytest.mark.parametrize("kind, sizes", [("space-time-field", 1), ("alpha-sweep", 1), ("domain-sweep", 3)])
def test_one_factor_plan_per_grid_size_per_run(tmp_path, monkeypatch, kind, sizes):
    import gc
    import weakref

    import hyplq.ocp as ocp_mod

    built = []

    class Counted(ocp_mod._DissectionTree):
        def __init__(self, N, M):
            super().__init__(N, M)
            built.append(weakref.ref(self))

    monkeypatch.setattr(ocp_mod, "_DissectionTree", Counted)
    assert run_experiment(plan_from_config(sweep_config(kind, tmp_path)), workers=2) == 0
    assert len(built) == sizes
    gc.collect()
    assert all(ref() is None for ref in built)  # no plan outlives the run


def test_a_factor_plan_of_other_grids_is_refused():
    from hyplq.ocp import factor_plan, solve_ocp

    plan = plan_from_config(sweep_config("domain-sweep", "unused"))
    small, large = plan.realize(L=1.0), plan.realize(L=2.0)
    assert solve_bytes(small, factor_plan(small)) == solve_bytes(small)
    for call in (solve_bytes, solve_ocp):
        with pytest.raises(ValueError, match="factor plan of N=32"):
            call(small, factor_plan(large))


def test_members_sharing_a_plan_match_serial_solves_on_many_threads(tmp_path):
    alphas = {"alpha_values": [0.125, 0.25, 0.5, 1.0, 2.0]}
    reference = tmp_path / "reference.csv"
    serial_sweep_table(plan_from_config(sweep_config("alpha-sweep", tmp_path, **alphas)), reference)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = tmp_path / "run"
        assert run_experiment(plan_from_config(sweep_config("alpha-sweep", out, **alphas)), workers=5) == 0
    finally:
        sys.setswitchinterval(interval)
    assert (out / "alphas.csv").read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_domain_sweep_fits_on_the_smallest_member_whatever_finishes_first(tmp_path, monkeypatch, workers):
    import time

    import hyplq.cli as cli_mod

    baseline = tmp_path / "baseline"
    assert run_experiment(plan_from_config(sweep_config("domain-sweep", baseline)), workers=1) == 0
    real_gate, real_sliced = cli_mod._solve_gate, cli_mod.time_sliced_l2
    fitted = []

    def gate(cfg, tol, plan):
        if cfg.grid.L == 1.0:
            time.sleep(0.2)  # the smallest member finishes last
        return real_gate(cfg, tol, plan)

    def sliced(field, grid, tgrid):
        fitted.append(grid.L)
        return real_sliced(field, grid, tgrid)

    monkeypatch.setattr(cli_mod, "_solve_gate", gate)
    monkeypatch.setattr(cli_mod, "time_sliced_l2", sliced)
    out = tmp_path / "run"
    assert run_experiment(plan_from_config(sweep_config("domain-sweep", out)), workers=workers) == 0
    assert fitted == [1.0]
    assert (out / "reports.csv").read_bytes() == (baseline / "reports.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_raises_the_first_failing_member_in_input_order(tmp_path, capsys, monkeypatch, workers):
    import time

    import hyplq.cli as cli_mod
    from hyplq.characteristics import NumericError

    real = cli_mod._solve_gate

    def gate(cfg, tol, plan):
        if cfg.grid.L == 3.0:  # submitted first, fails at once
            raise NumericError("member L=3 diverged")
        if cfg.grid.L == 2.0:
            time.sleep(0.1)
            raise NumericError("member L=2 diverged")
        return real(cfg, tol, plan)

    monkeypatch.setattr(cli_mod, "_solve_gate", gate)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(sweep_config("domain-sweep", tmp_path / "unused", plot=True)))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(p), "--out", str(out), "--workers", str(workers)]) == 2
    err = capsys.readouterr().err
    assert "member L=2 diverged" in err
    assert "L=3" not in err
    assert not out.exists()


def test_memory_caps_the_sweep_pool(tmp_path, capsys, monkeypatch):
    import hyplq.cli as cli_mod

    widths = []

    class Pool(cli_mod.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "ThreadPoolExecutor", Pool)
    plan = plan_from_config(sweep_config("domain-sweep", tmp_path / "free"))
    need = sorted((solve_bytes(plan.realize(L=L)) for L in plan.l_values), reverse=True)
    assert need[0] > need[1] > need[2]
    monkeypatch.setattr(cli_mod, "_mem_available", lambda: None)
    assert run_experiment(plan, workers=3) == 0
    reference = (tmp_path / "free" / "reports.csv").read_bytes()
    assert "memory caps" not in capsys.readouterr().err
    cases = [
        (math.ceil(sum(need)), 3, ""),
        (math.ceil(sum(need[:2])), 2, "memory caps the sweep pool at 2 of 3 members at once"),
        (math.floor(sum(need[:2])) - 1, 1, "memory caps the sweep pool at 1 of 3 members at once"),
        (math.ceil(need[0]), 1, "memory caps the sweep pool at 1 of 3 members at once"),
    ]
    for i, (avail, width, message) in enumerate(cases):
        monkeypatch.setattr(cli_mod, "_mem_available", lambda: avail)
        out = tmp_path / f"capped{i}"
        assert run_experiment(plan_from_config(sweep_config("domain-sweep", out)), workers=3) == 0
        assert widths[-1] == width
        err = capsys.readouterr().err
        assert (message in err) if message else ("memory caps" not in err)
        assert (out / "reports.csv").read_bytes() == reference
    # two workers over three members: the cap counts against two, not three
    monkeypatch.setattr(cli_mod, "_mem_available", lambda: math.ceil(sum(need[:2])))
    assert run_experiment(plan_from_config(sweep_config("domain-sweep", tmp_path / "two")), workers=2) == 0
    assert widths[-1] == 2
    assert "memory caps" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["domain-sweep", "alpha-sweep", "space-time-field", "sliced-norms"])
def test_sweep_whose_largest_member_cannot_fit_exits_2_without_files(tmp_path, capsys, monkeypatch, kind):
    import hyplq.cli as cli_mod

    plan = plan_from_config(sweep_config(kind, tmp_path))
    largest = max(solve_bytes(c) for c in cli_mod._members(plan))
    monkeypatch.setattr(cli_mod, "_mem_available", lambda: math.floor(largest) - 1)

    def refuse(cfg, plan):
        raise AssertionError("the preflight must stop the run before any solve")

    monkeypatch.setattr(cli_mod, "solve_ocp", refuse)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(sweep_config(kind, tmp_path / "unused")))
    out = tmp_path / "run"
    if kind == "space-time-field":
        argv = ["solve-ocp", "--config", str(p), "--out", str(out)]
    else:
        argv = ["sweep", "--config", str(p), "--out", str(out), "--workers", "2"]
    assert main(argv) == 2
    assert "MiB is available" in capsys.readouterr().err
    assert not out.exists()


def test_solve_estimate_scales_the_float64_front_count():
    import hyplq.ocp as ocp_mod

    def member(L, nodes_per_unit, steps):
        cfg = small_config(grid={"L": L, "nodes_per_unit": nodes_per_unit}, time={"T": 5.0, "steps": steps})
        return plan_from_config(cfg).realize(L=L)

    # a float64 factor keeps exactly its own slots' fronts, at most what the
    # tree counts with each front that repeats in time once, and the
    # estimate scales the peak of that count, which holds the kept factor too
    cfg = member(1.0, 32, 24)
    tree = ocp_mod._DissectionTree(cfg.grid.N, cfg.tgrid.M)
    kst = ocp_mod._kkt_stencil(cfg)
    slots = ocp_mod._front_slots(kst, tree, np.dtype(np.float64))
    own = sum((int(slot.max()) + 1) * g.kept for g, slot in zip(tree.groups, slots))
    assert ocp_mod._FrontFactor(kst, tree, np.float64).nbytes == 8 * own <= 8 * tree.entries()
    # W, Y and X without the state rows of the row above and the adjoint rows of the row below
    outward = [np.count_nonzero(np.isin(g.local[g.ns :, 0], (0, g.table.shape[0] - 1))) for g in tree.groups]
    assert tree.entries() < sum(g.count * (4 * g.ns**2 + 8 * g.ns * g.nb - 2 * g.ns * o) for g, o in zip(tree.groups, outward))
    assert tree.peak_entries() > tree.entries()
    assert solve_bytes(cfg) == ocp_mod._SOLVE_SCALE * 8 * tree.peak_entries()
    # the sweep-pool benchmark's two largest members (L = 2.5 and 2 at 128
    # nodes per unit, 100 steps) run together well inside a small machine
    assert solve_bytes(member(2.5, 128, 100)) + solve_bytes(member(2.0, 128, 100)) < 256 * 2**20


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_a_pool_without_workers(tmp_path, capsys, workers):
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(sweep_config("domain-sweep", tmp_path / "unused")))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(p), "--out", str(out), "--workers", workers]) == 3
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="workers"):
        run_experiment(plan_from_config(sweep_config("domain-sweep", out)), workers=int(workers))
    assert not out.exists()


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
    assert main(["check-domain", "--domain", 'finite: [["0", "0.5"]]']) == 3
    assert main(["check-domain", "--domain", 'periodic: {period: "1", pattern: [[0, 0.2]]}']) == 3


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
        # one interval, then a gap of 199.8 before the tail: small enough
        # constants (k = 0.005, K = 0.0334) certify it
        (
            {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "prefix": [[0.0, 0.2]], "start": 200.0}},
            None,
        ),
    ],
    ids=["certified", "offset-start", "finite-prefix", "long-gap-prefix"],
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


def test_check_domain_simulate_config_without_layout_uses_simulate_default(tmp_path, capsys):
    # simulate runs a config without control_domain on no control at all,
    # so check-domain must judge that layout, not the plan default
    sim_file = tmp_path / "sim.json"
    sim_file.write_text(json.dumps({"equation": "transport", "grid": {"L": 2.0}}))
    assert main(["check-domain", "--config", str(sim_file)]) == 1
    assert capsys.readouterr().out.strip().startswith("stabilizable: no (")


def test_check_domain_zero_drift_layout(capsys):
    # k * period = K * pattern measure: the enumeration repeats the closed form exactly
    domain = "periodic: {period: 1, pattern: [[0, 0.05]]}"
    assert main(["check-domain", "--domain", domain, "--k", "1", "--K", "20"]) == 0
    assert "stabilizable: yes" in capsys.readouterr().out


def test_check_domain_density_deficit_with_explicit_constants(capsys):
    # k * period = 2 exceeds K * pattern measure = 1: only explicit constants
    # can ask for more than the layout's density
    assert main(["check-domain", "--domain", EQUIDISTANT, "--k", "2", "--K", "5"]) == 1
    assert capsys.readouterr().out.strip() == "stabilizable: no (density-deficit)"


def test_check_domain_long_gap_layout_certifies(capsys):
    # K = 1/8 scaled down by the worst pair value (about 18.7, the gap
    # before the tail) certifies it
    domain = "periodic: {prefix: [[0, 0.1]], period: 1, pattern: [[0, 0.2]], start: 1000}"
    assert main(["check-domain", "--domain", domain]) == 0
    assert capsys.readouterr().out.strip() == "stabilizable: yes (k=0.0010001, K=0.00666733, M=2.71828)"


def test_check_domain_infinite_constant_is_config_error(capsys):
    assert main(["check-domain", "--domain", EQUIDISTANT, "--k", "0.1", "--K", "inf"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "K=inf" in captured.err


def test_check_domain_overflowing_overshoot_exits_2(capsys):
    # the 10000-long first interval makes M = exp(K * 10000) = exp(1250)
    domain = "periodic: {prefix: [[0, 10000]], period: 1, pattern: [[0, 0.2]], start: 10000}"
    assert main(["check-domain", "--domain", domain]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overshoot constant M = exp(1250) overflows" in captured.err


def test_stabilizability_demo_overflowing_decay_overshoot_exits_2(tmp_path, capsys):
    # certified, but the tail start 3000 puts exp((0.9 / 2) * 3001) in the
    # decay overshoot
    layout = {"periodic": {"prefix": [[0.0, 0.1]], "period": 1.0, "pattern": [[0.0, 0.9]], "start": 3000.0}}
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(small_config(experiment="stabilizability-demo", control_domain=layout)))
    out = tmp_path / "demo"
    assert main(["sweep", "--config", str(plan_file), "--out", str(out)]) == 2
    assert "decay overshoot M = exp(1350.45) overflows" in capsys.readouterr().err
    assert not out.exists()


def test_check_domain_periodic_text_must_hold_an_object(capsys):
    assert main(["check-domain", "--domain", "periodic: 5"]) == 3
    assert "periodic domain must be an object" in capsys.readouterr().err


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
    assert not out.exists()


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
    if equation in ("transport-var", "continuity"):
        # 16 nodes, 3 levels, blocks of levels_per_block(16) levels; the
        # variable-speed block also holds about four (block, N, 16)
        # Gauss-Legendre temporaries
        block = levels_per_block(16) * 16
        shared = 8 * (3 * 16 + 16 * block) + 256 * _TABLE_BLOCK
        quadrature = 8 * 64 * block
        monkeypatch.setattr(cli_mod, "_mem_available", lambda: shared + quadrature // 2)
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("experiment", "domain-sweep"),
        ("alpha", -1),
        ("observation_domain", {"finite": [[0.0, 0.5]]}),
        ("l_values", [1.0, 2.0]),
        ("alpha_values", [0.5]),
        ("plot", True),
    ],
)
def test_simulate_rejects_plan_only_keys(tmp_path, capsys, key, value):
    # simulate runs no experiment, solve or plot, so these plan keys would
    # be ignored or fail with a plan's message
    cfg = {"equation": "transport", "grid": {"L": 1.0, "nodes_per_unit": 16}, "time": {"T": 0.25, "steps": 2}}
    p = tmp_path / "sim.json"
    p.write_text(json.dumps({**cfg, key: value}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 3
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, rows, meta",
    [
        ("decay-fit", 5, {"L": 1.0, "N": 10}),  # fewer rows than N says
        ("decay-fit", 10, {"L": 1.0, "N": 10}),  # a NaN value
        ("plot", 10, {}),  # a NaN value in a line table
    ],
    ids=["decay-fit-rows", "decay-fit-nan", "plot-nan"],
)
def test_malformed_input_table_is_config_error(tmp_path, capsys, command, rows, meta):
    w = np.linspace(0.0, 0.9, rows)
    y = np.exp(-np.abs(0.5 - w))
    if rows == 10:
        y[3] = np.nan
    path = tmp_path / "table.csv"
    write_table(path, ["w", "value"], [w, y], meta)
    out = tmp_path / "out.svg"
    if command == "decay-fit":
        argv = ["decay-fit", "--in", str(path), "--center", "0.5"]
    else:
        argv = ["plot", "--in", str(path), "--style", "line", "--out", str(out)]
    assert main(argv) == 3
    assert "config error: cannot read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve-ocp", "--tol", "nan"),
        ("solve-ocp", "--tol", "-1"),
        ("sweep", "--tol", "inf"),
        ("decay-fit", "--center", "nan"),
        ("decay-fit", "--floor", "-1"),
        ("decay-fit", "--floor", "0"),
    ],
)
def test_bad_numeric_flag_is_config_error_before_any_work(tmp_path, capsys, command, flag, value):
    grid = Grid1D(1.0, 64)
    profile = tmp_path / "profile.csv"
    write_table(profile, ["w", "value"], [grid.nodes, np.exp(-np.abs(0.5 - grid.nodes))], {"L": 1.0, "N": 64})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    if command == "decay-fit":
        argv = ["decay-fit", "--in", str(profile), "--center", "0.5", "--out", str(out)]
    else:
        argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main([*argv, flag, value]) == 3
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_tiny_tolerance_stays_valid(tmp_path):
    # the gate a failing-solve check uses: parsed, then missed by the solve
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_config()))
    out = tmp_path / "out"
    assert main(["solve-ocp", "--config", str(cfg), "--out", str(out), "--tol", "1e-300"]) == 2
    assert not out.exists()


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


def _edit_rows(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("t,w,value")) + 1
    rows = lines[first:]
    edit(rows)
    path.write_text("".join(lines[:first] + rows))


def _swap_levels(rows):  # the same node at two times: t out of place
    rows[0], rows[16] = rows[16], rows[0]


def _swap_nodes(rows):  # two nodes of one level: w out of place
    rows[1], rows[2] = rows[2], rows[1]


def _nudge_node(rows):
    t, w, v = rows[3].rstrip("\n").split(",")
    rows[3] = f"{t},{float(w) + 1e-12!r},{v}\n"


@pytest.mark.parametrize("edit", [_swap_levels, _swap_nodes, _nudge_node])
def test_plot_heatmap_rejects_misplaced_field_rows(tmp_path, edit):
    grid, tgrid = Grid1D(1.0, 16), TimeGrid(0.5, 4)
    path = tmp_path / "f.csv"
    field = np.arange((tgrid.M + 1) * grid.N, dtype=float).reshape(tgrid.M + 1, grid.N)
    write_field_csv(path, field, grid, tgrid, {})
    _edit_rows(path, edit)
    with pytest.raises(ValueError, match="differs from the grid"):
        read_field_csv(path)
    out = tmp_path / "h.svg"
    assert main(["plot", "--in", str(path), "--style", "heatmap", "--out", str(out)]) == 3
    assert not out.exists()


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
        # values of the wrong JSON type are rejected, not coerced
        ("solve-ocp", small_config(plot="false")),
        ("simulate", {"equation": "wave", "plot": "false"}),
        ("sweep", small_config(plot=1)),
        ("solve-ocp", small_config(time={"T": 0.5, "steps": 2.7})),
        ("simulate", {"equation": "wave", "time": {"T": 0.5, "steps": 2.7}}),
        ("solve-ocp", small_config(time={"T": 0.5, "steps": True})),
        ("solve-ocp", small_config(grid={"L": 1.0, "nodes_per_unit": 16.9})),
        ("simulate", {"equation": "wave", "grid": {"L": 1.0, "nodes_per_unit": 16.9}}),
        ("sweep", small_config(grid={"L": 1.0, "nodes_per_unit": "32"})),
        ("solve-ocp", small_config(initial={"type": "sine", "mode": 1.5})),
        ("simulate", {"equation": "wave", "initial": {"type": "sine", "mode": 1.5}}),
        ("simulate", {"equation": "wave", "initial": {"type": "sine", "mode": False}}),
        # real-valued keys take JSON numbers only
        ("simulate", {"equation": "transport", "grid": {"L": "2"}, "feedback_gain": True}),
        ("simulate", {"equation": "transport", "feedback_gain": True}),
        ("simulate", {"equation": "wave", "time": {"T": "5"}}),
        ("solve-ocp", small_config(alpha="0.25")),
        ("solve-ocp", small_config(velocity={"type": "constant", "value": True})),
        ("solve-ocp", small_config(velocity={"type": "sinusoidal", "mean": 2.0, "amplitude": "0.5"})),
        ("solve-ocp", small_config(initial={"type": "bump", "width": "0.4", "center": 0.5})),
        ("sweep", small_config(experiment="domain-sweep", l_values=[1.0, "2"])),
        ("sweep", small_config(experiment="alpha-sweep", alpha_values=[False])),
        ("check-domain", {"finite": [["0", "0.5"]]}),
        ("check-domain", {"control_domain": {"finite": [[0.0, True]]}}),
        ("check-domain", {"periodic": {"period": "1", "pattern": [[0.0, 0.2]]}}),
        ("check-domain", {"periodic": {"period": 1.0, "pattern": [[0.0, "0.2"]]}}),
        ("check-domain", {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "prefix": [["0", 0.1]]}}),
        ("check-domain", {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "start": False}}),
        ("solve-ocp", small_config(control_domain={"finite": [["0", "0.5"]]})),
        # repeated sweep values, and grids of fewer than 4 cells
        ("sweep", small_config(experiment="domain-sweep", l_values=[1.0, 1.0, 1.0])),
        ("sweep", small_config(experiment="alpha-sweep", alpha_values=[0.5, 0.5])),
        ("solve-ocp", small_config(grid={"L": 0.02, "nodes_per_unit": 128})),
        ("sweep", small_config(experiment="domain-sweep", l_values=[0.01, 1.0])),
        # unknown keys inside nested objects
        ("solve-ocp", small_config(grid={"L": 1.0, "nodes_per_units": 32})),
        ("sweep", small_config(time={"T": 0.5, "step": 16})),
        ("simulate", {"equation": "wave", "time": {"T": 0.5, "step": 16}}),
        ("solve-ocp", small_config(velocity={"type": "constant", "value": 2.0, "amplitude": 0.5})),
        ("simulate", {"equation": "continuity", "velocity": {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5, "value": 2.0}}),
        ("solve-ocp", small_config(initial={"type": "bump", "width": 0.4, "center": 0.5, "mode": 1})),
        ("simulate", {"equation": "transport", "initial": {"type": "zero", "width": 0.4}}),
        ("solve-ocp", small_config(control_domain={"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "strat": 0.0}})),
        ("check-domain", {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "strat": 0.0}}),
        ("check-domain", {"control_domain": {"periodic": {"period": 1.0, "pattern": [[0.0, 0.2]], "strat": 0.0}}}),
        # a bump whose support window escapes [0, L], at L or at any l_values entry
        ("solve-ocp", small_config(initial={"type": "bump", "width": 0.8, "center": 0.9})),
        ("sweep", small_config(experiment="stabilizability-demo", initial={"type": "bump", "width": 0.8, "center": 0.9})),
        ("sweep", small_config(experiment="domain-sweep", l_values=[0.5, 1.0, 2.0])),
        ("simulate", {"equation": "transport", "grid": {"L": 1.0}, "initial": {"type": "bump", "width": 0.8, "center": 0.9}}),
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, monkeypatch, capsys, command, cfg):
    monkeypatch.chdir(tmp_path)  # plans without out_dir write to ./hyplq-out
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p)]) == 3
    assert "config error" in capsys.readouterr().err
    assert sorted(q.name for q in tmp_path.iterdir()) == ["cfg.json"]


def test_readme_defaults_block_is_the_plan_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == plan_to_config(plan_from_config({})) == _PLAN_DEFAULTS


def test_integral_float_config_numbers_are_accepted():
    cfg = small_config(
        grid={"L": 1.0, "nodes_per_unit": 32.0},
        time={"T": 0.5, "steps": 16.0},
        initial={"type": "sine", "mode": 2.0},
    )
    plan = plan_from_config(cfg)
    assert (plan.nodes_per_unit, plan.steps, plan.initial) == (32, 16, ("sine", 2))
    assert plan == plan_from_config(small_config(initial={"type": "sine", "mode": 2}))


SIM_SINE = {"equation": "transport-var", "velocity": {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5}}


@pytest.mark.parametrize(
    "command, cfg, number",
    [
        ("solve-ocp", small_config(time={"T": 0.5, "steps": "@"}), "1e400"),
        ("solve-ocp", small_config(initial={"type": "sine", "mode": "@"}), "1e400"),
        ("solve-ocp", small_config(grid={"L": "@", "nodes_per_unit": 32}), "Infinity"),
        ("solve-ocp", small_config(grid={"L": 1.0, "nodes_per_unit": "@"}), "1e400"),
        ("solve-ocp", small_config(velocity={"type": "constant", "value": "@"}), "NaN"),
        ("solve-ocp", small_config(velocity={"type": "sinusoidal", "mean": "@", "amplitude": 0.5}), "NaN"),
        ("solve-ocp", small_config(initial={"type": "bump", "width": "@", "center": 0.5}), "NaN"),
        ("sweep", small_config(experiment="domain-sweep", l_values=[1.0, "@"]), "Infinity"),
        ("simulate", {**SIM_SINE, "grid": {"L": "@"}}, "Infinity"),
        ("simulate", {**SIM_SINE, "time": {"T": "@"}}, "Infinity"),
        ("simulate", {**SIM_SINE, "feedback_gain": "@"}, "NaN"),
    ],
)
def test_non_finite_config_number_is_config_error(tmp_path, capsys, command, cfg, number):
    # json reads NaN, Infinity and overflowing literals such as 1e400
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg).replace('"@"', number))
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 3


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_simulate_killed_mid_write_leaves_only_whole_artifacts(tmp_path):
    # a wave run writes two 1281-level tables; SIGKILL it as soon as its
    # first temp file appears
    cfg = tmp_path / "wave.json"
    cfg.write_text(json.dumps({"equation": "wave", "grid": {"L": 2.0, "nodes_per_unit": 128}}))
    out = tmp_path / "run"
    argv = [sys.executable, "-m", "hyplq", "simulate", "--config", str(cfg), "--out", str(out)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120.0
    try:
        while not (out.is_dir() and any(out.glob(".*.tmp"))):
            assert proc.poll() is None, "simulate ended before its first temp file was seen"
            assert time.monotonic() < deadline, "no temp file within two minutes"
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    for p in out.iterdir():
        if p.name.startswith("."):
            assert p.name.endswith(".tmp")
        else:
            grid, tgrid, field = read_field_csv(p)
            assert (grid.N, tgrid.M) == (256, 1280)
            assert field.shape == (1281, 256) and np.all(np.isfinite(field))


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hyplq", "check-domain", "--domain", EQUIDISTANT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "stabilizable: yes" in proc.stdout


# every CLI command runs on numpy alone; only the sparse library API
# (assemble_kkt, build_advection_matrix, rollout_midpoint) imports scipy
_WITHOUT_SCIPY = r"""
import json, sys
from pathlib import Path

import numpy as np

import hyplq
import hyplq.cli
from hyplq.cli import main, write_table

out = Path(sys.argv[1])
base = {"grid": {"L": 1.0, "nodes_per_unit": 16}, "time": {"T": 0.5, "steps": 8}}
sine = {"type": "sinusoidal", "mean": 2.0, "amplitude": 0.5}


def config(name, obj):
    path = out / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


w = np.linspace(0.0, 1.0, 64, endpoint=False)
write_table(out / "profile.csv", ["w", "value"], [w, 3.0 * np.exp(-2.0 * np.abs(0.5 - w))], {"L": 1.0, "N": 64})
codes = {
    "check-domain": main(["check-domain", "--domain", "periodic: {period: 1, pattern: [[0, 0.2]]}"]),
    "simulate": main(["simulate", "--config", config("sim", {"equation": "transport-var", **base, "velocity": sine}),
                      "--out", str(out / "sim")]),
    "solve-ocp": main(["solve-ocp", "--config", config("ocp", base), "--out", str(out / "ocp")]),
    "sweep": main(["sweep", "--config", config("sweep", {"experiment": "domain-sweep", **base, "l_values": [1.0, 1.5]}),
                   "--out", str(out / "sweep"), "--workers", "2"]),
    "plot": main(["plot", "--in", str(out / "ocp" / "x.csv"), "--style", "heatmap", "--out", str(out / "x.svg")]),
    "decay-fit": main(["decay-fit", "--in", str(out / "profile.csv"), "--center", "0.5"]),
}
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
grid = hyplq.Grid1D(1.0, 16)
cfg = hyplq.OCPConfig(
    grid=grid,
    tgrid=hyplq.TimeGrid(0.5, 8),
    velocity=hyplq.VelocityField.constant(2.0),
    alpha=0.25,
    control_domain=hyplq.IntervalUnion(prefix=((0.0, 0.3),)),
    x0=hyplq.bump_initial(0.4, 0.5, grid),
)
K, rhs = hyplq.assemble_kkt(cfg)
print(json.dumps({"codes": codes, "scipy": before, "kkt": list(K.shape), "rhs": len(rhs),
                  "scipy_after": "scipy.sparse" in sys.modules}))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == {name: 0 for name in report["codes"]}
    assert len(report["codes"]) == 6
    assert report["scipy"] == []
    # the library's sparse assembly still works, importing scipy when called
    assert report["kkt"] == [2 * 16 * 9, 2 * 16 * 9] and report["rhs"] == 2 * 16 * 9
    assert report["scipy_after"]
