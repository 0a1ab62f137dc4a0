import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidiv import (DataError, MomentModel, ParameterSpaceError,
                    WeightedSample, builtin_model, get_model, load_csv,
                    register_model)
from phidiv import models
from phidiv.dual import _augmented


def test_gbar_values():
    # the rows of the dual design matrix are gbar(x) = (1, g(x, theta))
    mean = builtin_model("mean")
    one = WeightedSample.from_points(np.array([3.0]))
    assert np.array_equal(_augmented(mean, one, np.array([1.0])), [[1.0, 2.0]])
    mv = builtin_model("mean-variance")
    s = WeightedSample.from_points(np.array([2.0, 0.0]))
    assert np.array_equal(_augmented(mv, s, np.array([1.0])),
                          [[1.0, 2.0, 3.0], [1.0, 0.0, -1.0]])


def test_check_theta_rejects_outside_box():
    mean = builtin_model("mean")
    with pytest.raises(ParameterSpaceError):
        mean.check_theta([11.0])
    with pytest.raises(ParameterSpaceError):
        mean.check_theta([0.0, 0.0])
    with pytest.raises(ParameterSpaceError):
        mean.check_theta([np.nan])


def test_builtin_dimensions():
    assert builtin_model("mean").l == 1
    assert builtin_model("mean").d == 1
    mv = builtin_model("mean-variance")
    assert (mv.m, mv.l, mv.d) == (1, 2, 1)
    m3 = builtin_model("mean", m=3)
    assert (m3.l, m3.d) == (3, 3)
    # the declared constant Jacobian is the one g_jac gives at every point
    x = np.random.default_rng(0).normal(size=(5, 3))
    for model, theta in ((mv, [0.4]), (m3, [0.1, -0.2, 0.3])):
        assert (model.jac_values(x[:, :model.m], theta) == model.jacobian).all()
    with pytest.raises(ValueError):
        builtin_model("nope")


@pytest.mark.parametrize("name", ["mean", "mean-variance"])
def test_jacobian_matches_finite_differences(name, rng):
    model = get_model(name)
    x = rng.normal(size=(6, model.m))
    theta = rng.uniform(-1.0, 1.0, size=model.d)
    jac = model.jac_values(x, theta)
    h = 1e-6
    for k in range(model.d):
        tp = theta.copy(); tp[k] += h
        tm = theta.copy(); tm[k] -= h
        fd = (model.g_values(x, tp) - model.g_values(x, tm)) / (2.0 * h)
        assert np.allclose(jac[:, :, k], fd, atol=1e-5)


def test_weighted_sample_validation():
    with pytest.raises(DataError):
        WeightedSample(np.array([1.0, 2.0]), np.array([0.7, 0.7]))
    with pytest.raises(DataError):
        WeightedSample(np.array([1.0, 2.0]), np.array([1.5, -0.5]))
    # an atom without mass is not support: it would still bound dom psi
    with pytest.raises(DataError, match="weights must be positive"):
        WeightedSample(np.array([-1.0, 0.0, 1.0, 100.0]), np.array([0.5, 0.25, 0.25, 0.0]))
    with pytest.raises(DataError):
        WeightedSample(np.empty((0, 1)), np.empty(0))
    for empty in ([], np.empty(0), np.empty((0, 2))):
        with pytest.raises(DataError, match="empty sample"):
            WeightedSample.from_points(empty)
    with pytest.raises(DataError, match="finite"):
        WeightedSample.from_points(np.array([1.0, np.nan, 3.0]))
    with pytest.raises(DataError, match="finite"):
        WeightedSample.from_points(np.array([[1.0, 2.0], [3.0, -np.inf]]))
    with pytest.raises(DataError, match="finite"):
        WeightedSample(np.array([1.0, 2.0, 3.0]), np.array([0.5, np.nan, 0.5]))
    s = WeightedSample.from_points(np.array([1.0, 2.0, 3.0]))
    assert s.n == 3
    assert s.points.shape == (3, 1)
    assert np.allclose(s.weights, 1.0 / 3.0)


@pytest.mark.parametrize("jacobian", [[[-1.0]], [[0.0, -1.0]], [0.0, -1.0],
                                      [[0.0], [np.nan]], [[0.0], [np.inf]]])
def test_model_refuses_a_jacobian_that_is_not_a_finite_l_by_d_matrix(jacobian):
    mv = builtin_model("mean-variance")
    with pytest.raises(ValueError, match="jacobian must be a finite 2 x 1 matrix"):
        MomentModel("bad", mv.m, mv.d, mv.l, mv.g, mv.g_jac, jacobian=jacobian)


def test_register_model_roundtrip():
    mv = builtin_model("mean-variance")
    custom = MomentModel("custom", mv.m, mv.d, mv.l, mv.g, mv.g_jac,
                         theta_lo=0.0, theta_hi=2.0)
    register_model("custom", custom)
    assert get_model("custom") is custom
    assert np.allclose(custom.theta_lo, [0.0])


@pytest.mark.parametrize("name", ["mean", "mean-variance"])
def test_get_model_gives_one_read_only_model_per_name(name, monkeypatch):
    # one object per built-in name, so a solution made with an earlier
    # call's model is the problem of a later call; shared, its box and
    # Jacobian are read-only
    model = get_model(name)
    assert get_model(name) is model
    for arr in (model.theta_lo, model.theta_hi, model.jacobian):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    custom = MomentModel("custom", model.m, model.d, model.l, model.g, model.g_jac)
    monkeypatch.setitem(models._REGISTRY, name, custom)  # a registered name wins
    assert get_model(name) is custom


def test_samples_compare_by_identity():
    # the fields are arrays: == is identity, a bool, and a sample hashes
    a, b = WeightedSample.from_points(np.arange(3.0)), WeightedSample.from_points(np.arange(3.0))
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2


def test_load_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n\n5.0,6.0\n")
    s = load_csv(p)
    assert s.points.shape == (3, 2)
    p2 = tmp_path / "h.csv"
    p2.write_text("a,b\n1,2\n")
    s2 = load_csv(p2, header=True)
    assert s2.points.shape == (1, 2)
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nx\n")
    with pytest.raises(DataError, match="row 2, column 1"):
        load_csv(bad)
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(ragged)
    ragged.write_text("a,b\n1,2\n\n3\n")
    with pytest.raises(DataError, match="row 4 has 1 columns"):
        load_csv(ragged, header=True)
    for cell in ("nan", "inf", "-Infinity", "1e999"):
        nonfinite = tmp_path / "nf.csv"
        nonfinite.write_text(f"x,y\n1,2\n\n3,{cell}\n")
        with pytest.raises(DataError, match="non-finite .* row 4, column 2"):
            load_csv(nonfinite, header=True)
    with pytest.raises(DataError, match="no data"):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        load_csv(empty)


_FORMATS = (repr, lambda v: f"{v:.17g}", lambda v: f"{v:.5e}")


@st.composite
def _csv_texts(draw):
    """A CSV text and its cells, as (text, header, rows of cell strings)."""
    ncol = draw(st.integers(1, 3))
    cells = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=ncol, max_size=ncol), min_size=1, max_size=8))
    lines, rows = [], []
    header = draw(st.booleans())
    if header:
        lines.append(draw(st.sampled_from(["x", "a,b,c", '"x","y"', '"h,1"'])))
    for vals in cells:
        texts = [draw(st.sampled_from(_FORMATS))(v) for v in vals]
        rows.append(texts)
        padded = []
        for text in texts:
            pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
            text = pad + text + draw(st.sampled_from(["", " ", "\t"]))
            padded.append(f'"{text}"' if draw(st.booleans()) else text)
        lines.append(",".join(padded))
        if draw(st.integers(0, 4)) == 0:  # a blank or whitespace-only row
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, header, rows


@given(_csv_texts())
@settings(max_examples=150, deadline=None)
def test_load_csv_matches_float_per_cell(tmp_path_factory, case):
    text, header, rows = case
    p = tmp_path_factory.mktemp("csv") / "d.csv"
    p.write_bytes(text.encode())
    expected = np.array([[float(c) for c in row] for row in rows])
    got = load_csv(p, header=header).points
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("content, header, message", [
    (b"1.0\nx\n", False, "non-numeric value 'x' at row 2, column 1"),
    (b"1,2\n3,4,\n", False, "non-numeric value '' at row 2, column 3"),
    (b"a,b\n1,2\n\n3\n", True, "row 4 has 1 columns, expected 2"),
    (b"x,y\n1,2\n\n3,nan\n", True, "non-finite value nan at row 4, column 2"),
    (b"1\n-Infinity\n", False, "non-finite value -inf at row 2, column 1"),
    (b"1\n1e999\n", False, "non-finite value inf at row 2, column 1"),
    (b"", False, "no data rows"),
    (b"a,b\n \n,\n", True, "no data rows"),
    (b"1\n\xff2\n", False, "not UTF-8: byte 0xff at offset 2"),
    (b"1\n\x1c2\n", False, "non-numeric value '\\x1c2' at row 2, column 1"),
])
def test_load_csv_error_messages(tmp_path, content, header, message):
    p = tmp_path / "d.csv"
    p.write_bytes(content)
    with pytest.raises(DataError) as exc:
        load_csv(p, header=header)
    assert str(exc.value) == f"{p}: {message}"


def test_load_csv_forms_float_accepts(tmp_path):
    # cells numpy refuses but float() takes, and rows holding no data
    p = tmp_path / "d.csv"
    p.write_text("1_0,٢\n \t\n,\n 3 ,\"4\"\n", encoding="utf-8")
    assert load_csv(p).points.tolist() == [[10.0, 2.0], [3.0, 4.0]]
    # a header record spanning lines is skipped whole
    p.write_text('"x\n5\n"\n7\n', encoding="utf-8")
    assert load_csv(p, header=True).points.tolist() == [[7.0]]
