import hashlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympwave as sw
from sympwave import wave_kernel
from sympwave.errors import UsageError
from sympwave.harness import EXPERIMENTS, csv_lines

from conftest import counted_xi_builds


def make_records(xs, ys):
    return [sw.SweepRecord(inputs=(("x", x),), outputs=(("y", y),))
            for x, y in zip(xs, ys)]


# -- fit_slope ------------------------------------------------------------------

def test_fit_exact_square_law():
    xs = np.linspace(1.0, 9.0, 12)
    fit = sw.fit_slope(make_records(xs, xs**2), "x", "y")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.npoints == 12
    assert fit.stderr >= 0.0


def test_fit_synthetic_noisy_power_law():
    xs = np.linspace(50.0, 500.0, 40)
    ys = 3.7 * xs**-3 * (1 + 0.01 * np.sin(xs))
    fit = sw.fit_slope(make_records(xs, ys), "x", "y")
    assert fit.slope == pytest.approx(-3.0, abs=0.05)


def test_fit_needs_three_points():
    with pytest.raises(UsageError):
        sw.fit_slope(make_records([1.0, 2.0], [1.0, 2.0]), "x", "y")


def test_fit_rejects_nonpositive_naming_row():
    recs = make_records([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(UsageError, match="row 1"):
        sw.fit_slope(recs, "x", "y")


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(0.1, 10))
def test_fit_recovers_any_exact_power(slope, scale):
    xs = np.geomspace(1.0, 30.0, 9)
    fit = sw.fit_slope(make_records(xs, scale * xs**slope), "x", "y")
    assert fit.slope == pytest.approx(slope, abs=1e-9)


# -- records and emission ----------------------------------------------------------

def test_duplicate_columns_rejected():
    with pytest.raises(UsageError):
        sw.SweepRecord(inputs=(("x", 1.0),), outputs=(("x", 2.0),))


def test_emit_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    sw.emit([], "csv", str(path))
    assert path.read_text().strip() == ""
    assert sw.read_csv(str(path)) == []


def test_complex_columns_split(tmp_path):
    rec = sw.SweepRecord(inputs=(("t", 1.0),), outputs=(("val", 1 + 2j),))
    path = tmp_path / "c.csv"
    sw.emit([rec], "csv", str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,val_re,val_im"


def test_csv_round_trip(tmp_path):
    xs = [1.0, 2.5, 3.75]
    ys = [0.1234567890123456789, 7.25e-11, 3.0]
    path = tmp_path / "r.csv"
    sw.emit(make_records(xs, ys), "csv", str(path))
    back = sw.read_csv(str(path))
    for rec, x, y in zip(back, xs, ys):
        assert rec.get("x") == x
        assert rec.get("y") == y


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_csv_round_trip_property(tmp_path_factory, ys):
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    recs = make_records(range(1, len(ys) + 1), ys)
    sw.emit(recs, "csv", str(path))
    back = sw.read_csv(str(path))
    for rec, y in zip(back, ys):
        assert rec.get("y") == y


def test_emit_svg(tmp_path):
    xs = np.geomspace(1, 100, 8)
    path = tmp_path / "plot.svg"
    sw.emit(make_records(xs, xs**-2), "svg", str(path))
    text = path.read_text()
    assert text.startswith("<svg") and "polyline" in text


def _svg_records():
    ts = np.geomspace(1.0, 100.0, 9)
    return [sw.SweepRecord(inputs=(("t", float(t)),),
                           outputs=(("a", t ** -2), ("b", complex(t ** -1, -t)), ("n", i),
                                    ("c", np.float32(t ** 0.5)), ("d", np.complex128(1j * t)),
                                    ("e", 3.0 + np.sin(t)), ("f", float(i % 2))))
            for i, t in enumerate(ts)]


def test_emit_svg_bytes_are_pinned(tmp_path):
    # eight series of every value type, some dropped or cut by the log scale;
    # the digest is the output of the writer that flattened each series apart
    path = tmp_path / "plot.svg"
    sw.emit(_svg_records(), "svg", str(path))
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "0e43aee454e87fd50628b34a9d7819420d198f99865114e663151f1c0991ca8f")


def test_emit_svg_chart_ending_at_x_1_spans_the_frame(tmp_path):
    # log 1 = 0 is the largest log x here; it must map to the frame's right
    # edge, 580, not to where a log x of 1 would be
    xs = np.geomspace(0.1, 1.0, 6)
    path = tmp_path / "plot.svg"
    sw.emit(make_records(xs, xs**-2), "svg", str(path))
    text = path.read_text()
    assert 'points="60.00,60.00 164.00,132.00 268.00,204.00 372.00,276.00 ' \
           '476.00,348.00 580.00,420.00"' in text
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "71f8995b9fe74c3e9d153edbc98561761b0be8aede6593b22956975d404c33ba")


def _ragged(second):
    return [sw.SweepRecord(inputs=(("x", 1.0),), outputs=(("y", 2.0),)), second]


@pytest.mark.parametrize("fmt", ["csv", "svg"])
@pytest.mark.parametrize("second", [
    sw.SweepRecord(inputs=(("x", 1.0),), outputs=(("y", 2.0 + 1.0j),)),   # wider
    sw.SweepRecord(inputs=(("t", 1.0),), outputs=(("z", 3.0),)),          # renamed
], ids=["width", "names"])
def test_ragged_rows_rejected_naming_the_row(second, fmt, tmp_path):
    with pytest.raises(UsageError, match="row 1 has columns"):
        sw.emit(_ragged(second), fmt, str(tmp_path / f"r.{fmt}"))


# every value type a row may hold, with the values that format unlike the rest
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.5e-310, 1e308, -1e308]
_SPECIAL32 = [math.nan, math.inf, -math.inf, -0.0, 1e-45, 3.4e38]
_doubles = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_singles = st.one_of(st.sampled_from(_SPECIAL32), st.floats(width=32))
_VALUES = {
    "float": _doubles,
    "int": st.integers(-2**70, 2**70),
    "bool": st.booleans(),
    "complex": st.builds(complex, _doubles, _doubles),
    "float64": _doubles.map(np.float64),
    "float32": _singles.map(np.float32),
    "int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "complex128": st.builds(complex, _doubles, _doubles).map(np.complex128),
    "complex64": st.builds(complex, _singles, _singles).map(np.complex64),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_VALUES)), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(_VALUES[k] for k in kinds)), min_size=1, max_size=4))
    return [sw.SweepRecord(inputs=(("c0", row[0]),),
                           outputs=tuple((f"c{j}", v) for j, v in enumerate(row) if j))
            for row in rows]


def _reference_columns(rec):
    """The flat columns by the plain rule: complex if Python or numpy says so."""
    cols = []
    for name, value in rec.inputs + rec.outputs:
        if isinstance(value, complex) or np.iscomplexobj(value):
            cols += [(f"{name}_re", float(np.real(value))), (f"{name}_im", float(np.imag(value)))]
        else:
            cols.append((name, float(value)))
    return cols


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_csv_lines_match_the_plain_rule(tmp_path_factory, records):
    ref = [_reference_columns(rec) for rec in records]
    lines = csv_lines(records)
    assert lines[0] == ",".join(name for name, _ in ref[0])
    assert lines[1:] == [",".join("%.17g" % v for _, v in cols) for cols in ref]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    sw.emit(records, "csv", str(path))
    back = sw.read_csv(str(path))
    assert len(back) == len(records)
    for rec, cols in zip(back, ref):
        assert rec.column_names() == [name for name, _ in cols]
        assert all(_same_float(rec.get(name), v) for name, v in cols)


def test_emit_unwritable_path():
    with pytest.raises(OSError):
        sw.emit([], "csv", "/nonexistent-dir/x.csv")


# -- grids and config -----------------------------------------------------------

def test_parse_grid_list():
    assert sw.parse_grid("10,20,40") == [10.0, 20.0, 40.0]
    assert sw.parse_grid("") == []


def test_parse_grid_progressions():
    lin = sw.parse_grid("0:1:5:lin")
    assert np.allclose(lin, np.linspace(0, 1, 5))
    log = sw.parse_grid("1:100:3:log")
    assert np.allclose(log, [1.0, 10.0, 100.0])
    with pytest.raises(UsageError):
        sw.parse_grid("1:2:3:weird")
    assert sw.parse_grid("1:2:0:lin") == [] and sw.parse_grid("1:2:0:log") == []


def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nexperiment = kernel\npreset= h3\n t-list =10,20\n")
    spec = sw.read_config(str(cfg))
    assert spec == {"experiment": "kernel", "preset": "h3", "t-list": "10,20"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals here\n")
    with pytest.raises(UsageError):
        sw.read_config(str(bad))


# -- sweeps ------------------------------------------------------------------------

def kernel_spec(tlist="10,20"):
    return {"experiment": "kernel", "preset": "h3", "psi": "exp:1.0",
            "t-list": tlist, "R": "0.5"}


def test_run_sweep_kernel_rows():
    rows = sw.run_sweep(kernel_spec())
    assert len(rows) == 2
    assert rows[0].get("t") == 10.0
    assert rows[0].get("abs") > 0.0


def test_kernel_sweep_rows_equal_single_values():
    # the sweep reads all its t at once through KernelEvaluator.values
    rows = sw.run_sweep(kernel_spec("-3,0,5,10,20,40"))
    ev = sw.KernelEvaluator(sw.rank_one_geometry("h3"), sw.Profile("exponential", 1.0))
    for row in rows:
        val = ev.value(row.get("t"), row.get("R"))
        assert (row.get("re"), row.get("im"), row.get("abs")) == (val.real, val.imag, abs(val))


def test_run_sweep_empty_grid():
    assert sw.run_sweep(kernel_spec("")) == []


def test_run_sweep_unknown_experiment():
    with pytest.raises(UsageError, match="experiment"):
        sw.run_sweep({"experiment": "nope"})


def test_run_sweep_missing_key():
    with pytest.raises(UsageError, match="preset"):
        sw.run_sweep({"experiment": "cfun", "lambda-max": "1", "steps": "3"})


def test_cfun_sweep_columns():
    for name in ("a2", "h3", "ch2"):
        rows = sw.run_sweep({"experiment": "cfun", "preset": name,
                             "lambda-max": "2.0", "steps": "4"})
        rank = sw.preset(name).rank
        assert len(rows) == 4
        assert rows[0].column_names() == [f"lambda_{i + 1}" for i in range(rank)] + ["density"]
        cf = sw.CFunction(sw.preset(name))
        for row in rows:
            lam = np.array([row.get(f"lambda_{i + 1}") for i in range(rank)])
            assert row.get("density") == pytest.approx(float(cf.density(lam)), rel=1e-13)


def test_stphase_sweep():
    rows = sw.run_sweep({"experiment": "stphase", "x-list": "20,50", "N": "2", "M": "1"})
    assert len(rows) == 2
    for row in rows:
        assert row.get("abs_err") <= 1e-6 * abs(row.get("oracle")) + 1e-9


def test_model_sweep_skips_small_hr():
    rows = sw.run_sweep({"experiment": "model", "preset": "a2", "symbol": "gauss",
                         "r": "1.0", "h-list": "1.0,12.0"})
    assert math.isnan(rows[0].get("bound_ratio"))
    assert np.isfinite(rows[1].get("bound_ratio"))
    gap = abs(rows[1].get("direct") - rows[1].get("main")
              - rows[1].get("R0") - rows[1].get("R1") - rows[1].get("R2"))
    assert gap <= 1e-6 * abs(rows[1].get("direct")) + 1e-9


def _sweep_digest(spec):
    rows = sw.run_sweep(spec)
    from sympwave.harness import _flatten
    text = "\n".join(",".join("%.17g" % v for v in _flatten(r)[1]) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_rerun_byte_identical():
    assert _sweep_digest(kernel_spec()) == _sweep_digest(kernel_spec())


def test_worker_count_invariance(monkeypatch):
    specs = [
        kernel_spec("5,10,15,20"),
        # grid points on worker threads: xi decompositions through the
        # Chebyshev evaluator, and dispersive bounds sharing one kernel evaluator
        {"experiment": "model", "preset": "a2", "symbol": "plancherel", "r": "1.0",
         "h-list": "2,5,10,40"},
        {"experiment": "dispersive", "preset": "h3", "psi": "exp:1.0", "p": "4",
         "t-list": "10,20,40"},
    ]
    for spec in specs:
        monkeypatch.setenv("SYMPWAVE_THREADS", "1")
        one = _sweep_digest(spec)
        monkeypatch.setenv("SYMPWAVE_THREADS", "4")
        four = _sweep_digest(spec)
        assert one == four, spec["experiment"]


def _counted_tables(monkeypatch):
    """A list that records every transform table build."""
    tables = []
    table = wave_kernel.ChebTable

    def counted(*args, **kwargs):
        tables.append(table(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(wave_kernel, "ChebTable", counted)
    return tables


def test_dispersive_sweep_builds_one_evaluator(monkeypatch):
    tables = _counted_tables(monkeypatch)
    spec = {"experiment": "dispersive", "preset": "h3", "psi": "exp:1.0",
            "p": "4", "t-list": "10,20,40"}
    ts = (10.0, 20.0, 40.0)
    # four workers first, so that their first lookups race for the build
    bounds = {}
    for workers in ("4", "1"):
        monkeypatch.setenv("SYMPWAVE_THREADS", workers)
        bounds[workers] = [row.get("bound") for row in sw.run_sweep(spec)]
    geom, prof = sw.rank_one_geometry("h3"), sw.Profile("exponential", 1.0)
    bounds["alone"] = [sw.dispersive_bound(geom, prof, t, 4.0) for t in ts]
    assert len(tables) == 1
    # the same bits as a bound that builds its table afresh
    fresh = []
    for t in ts:
        wave_kernel._transform_table.cache_clear()
        fresh.append(sw.dispersive_bound(geom, prof, t, 4.0))
    assert len(tables) == 1 + len(ts)
    for values in bounds.values():
        assert np.array(values).tobytes() == np.array(fresh).tobytes()


def test_stphase_sweep_builds_one_amplitude(monkeypatch):
    from sympwave import harness

    builds = []

    def counted(problem, *args):
        builds.append(problem)
        return sw.amplitude_data(problem, *args)

    monkeypatch.setattr(harness, "amplitude_data", counted)
    spec = {"experiment": "stphase", "x-list": "20,50,300", "N": "2", "M": "1"}
    rows = sw.run_sweep(spec)
    assert len(builds) == 1
    # the same bits as an expansion that builds its own amplitude
    prob = builds[0]
    for row in rows:
        alone = sw.expand(prob, row.get("x"), 2, 1).total
        assert np.complex128(row.get("total")).tobytes() == np.complex128(alone).tobytes()
    # and on four worker threads, which share the amplitude's derivative cache
    monkeypatch.setenv("SYMPWAVE_THREADS", "1")
    one = _sweep_digest(spec)
    monkeypatch.setenv("SYMPWAVE_THREADS", "4")
    assert _sweep_digest(spec) == one
    # one build for each digest, none for an empty sweep
    assert sw.run_sweep({**spec, "x-list": ""}) == [] and len(builds) == 3


def test_equal_geometry_and_profile_share_one_table(monkeypatch):
    prof = sw.Profile("exponential", 1.0)
    h3 = sw.rank_one_geometry("h3")
    # an equal geometry built anew, with its own c-function, compares and hashes equal
    again = sw.rank_one_geometry("h3")
    assert again == h3 and hash(again) == hash(h3) and again.cfun is not h3.cfun
    table = sw.KernelEvaluator(h3, prof).transform
    # evaluators of equal geometries and profiles read one table, and so do
    # kernel values, the medium-regime ratio, kernel sweeps and bounds
    reads = []
    read = wave_kernel.KernelEvaluator.values

    def recorded(self, t, R):
        reads.append(self.transform)
        return read(self, t, R)

    assert sw.KernelEvaluator(again, sw.Profile("exponential", 1.0)).transform is table
    monkeypatch.setattr(wave_kernel.KernelEvaluator, "values", recorded)
    sw.kernel(sw.rank_one_geometry("h3"), prof, 10.0, 0.5)
    sw.log_regime_ratio(sw.rank_one_geometry("h3"), prof, 10.0, 0.5)
    sw.run_sweep(kernel_spec())
    sw.dispersive_bound(sw.rank_one_geometry("h3"), prof, 40.0, 4.0)
    assert len(reads) >= 4 and all(read_table is table for read_table in reads)
    assert wave_kernel._transform_table.cache_info().misses == 1
    # another preset or profile gets its own
    h2 = sw.KernelEvaluator(sw.rank_one_geometry("h2"), prof)
    exp2 = sw.KernelEvaluator(h3, sw.Profile("exponential", 2.0))
    assert len({id(table), id(h2.transform), id(exp2.transform)}) == 3
    assert sw.rank_one_geometry("h2") != h3
    # an instance's own transform patches that instance alone
    ev = sw.KernelEvaluator(h3, prof)
    ev.transform = lambda v: np.zeros(np.shape(v), dtype=complex)
    assert sw.KernelEvaluator(h3, prof).transform is table


def test_concurrent_evaluators_build_one_table(monkeypatch):
    tables = _counted_tables(monkeypatch)
    prof = sw.Profile("exponential", 1.0)
    got, errors = [], []

    def worker():
        try:
            got.append(sw.KernelEvaluator(sw.rank_one_geometry("h3"), prof).transform)
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(tables) == 1 and len(got) == 8 and all(table is tables[0] for table in got)


def _output_bytes(rows):
    return np.array([[v for _, v in row.outputs] for row in rows], dtype=complex).tobytes()


def test_model_sweep_builds_its_parts_once(monkeypatch):
    builds = counted_xi_builds(monkeypatch)
    spec = {"experiment": "model", "preset": "a2", "symbol": "plancherel", "r": "2",
            "h-list": "5,10,20,40,80"}
    # each sweep makes its own symbol; on four workers, the first lookups race
    rows = {}
    for count, workers in enumerate(("4", "1"), start=1):
        monkeypatch.setenv("SYMPWAVE_THREADS", workers)
        rows[workers] = sw.run_sweep(spec)
        assert [len(b) for b in builds.values()] == [count] * 3
    # the same bits as each row computed with every part built afresh
    fresh = []
    for h in spec["h-list"].split(","):
        sw.clear_caches()
        fresh += sw.run_sweep({**spec, "h-list": h})
    assert [len(b) for b in builds.values()] == [7, 7, 7]
    for got in rows.values():
        assert _output_bytes(got) == _output_bytes(fresh)


def test_concurrent_decompositions_build_one_set_of_parts(monkeypatch):
    builds = counted_xi_builds(monkeypatch)
    sym = sw.plancherel_symbol(sw.CFunction(sw.preset("a2")))
    E = np.array([1.0, 0.0])
    got, errors = [], []

    def worker(h):
        try:
            got.append(sw.xi_decompose(sym, E, 2.0, h))
        except Exception as exc:  # reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(5.0 + k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and not errors and len(got) == 8
    assert [len(b) for b in builds.values()] == [1, 1, 1]


def test_stphase_sweep_builds_one_r2_panel_set(monkeypatch):
    builds = counted_xi_builds(monkeypatch)
    spec = {"experiment": "stphase", "x-list": "20,50,300", "N": "2", "M": "1"}
    sw.run_sweep(spec)
    assert len(builds["r2"]) == 1


def test_wave_setup_and_its_dispersive_op_build_four_tables(monkeypatch):
    # the evaluators of the wave benchmark's set-up, and the bound of its
    # dispersive op, which reads the h3/exp:1 table of the value ops
    tables = _counted_tables(monkeypatch)
    geoms = {name: sw.rank_one_geometry(name) for name in ("h2", "h3", "h4", "ch2")}
    for name, family, param in (("h3", "exponential", 1.0), ("h4", "rational", 8.0),
                                ("h2", "bump", 2.0), ("ch2", "exponential", 1.0)):
        sw.KernelEvaluator(geoms[name], sw.Profile(family, param))
    sw.dispersive_bound(geoms["h3"], sw.Profile("exponential", 1.0), 40.0, 4.0)
    assert len(tables) == 4


def test_registered_experiments():
    assert set(EXPERIMENTS) == {"cfun", "stphase", "model", "kernel", "dispersive"}
