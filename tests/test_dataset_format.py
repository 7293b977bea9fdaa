"""The dataset CSV format: pinned bytes, round-trips and strict reads."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsq.schemes import (
    collect_all_pairs,
    collect_random_pairs,
    collect_random_split,
    collect_split_single,
    collect_total_spin,
    read_dataset,
    write_dataset,
)
from spinsq.states import DepolarizedMixture, DickeState

# sha256 of write_dataset's output for DickeState(4, 1), default_rng(11) and
# the meta below; the bytes are the format, so any change to them shows here
GOLDEN = {
    "total_spin": (collect_total_spin, dict(k=5),
                   "863051ad77ec9a44536a6a4695b2164b073dc8e8c0d7d109c58f16331623faa5"),
    "pairs": (collect_all_pairs, dict(k=3),
              "7f69026b508617b03a3804eb5ae2b5ac76181df63dbcc1b812538999f7f34c80"),
    "split": (collect_split_single, dict(k=4),
              "f324a862798f4e861b8fda0c1f3543de29b0d05c7f4a9c368bea2ac425a69a9c"),
    "random_pairs": (collect_random_pairs, dict(l=6, k=2),
                     "417d93433a0e31160072a23c8e9ae71b2ae7c24269c1e7d758a4201055795ac4"),
    "random_split": (collect_random_split, dict(l=5, k=4),
                     "f23ca3733b6c7df874fb77fee1717055fec446d7463a6f89ddd8e6b1ba56ea74"),
}


@pytest.mark.parametrize("kind", GOLDEN)
def test_written_bytes_are_pinned(kind, tmp_path):
    collect, budget, digest = GOLDEN[kind]
    ds = collect(DickeState(4, 1), rng=np.random.default_rng(11), **budget)
    dest = tmp_path / f"{kind}.csv"
    write_dataset(ds, dest, meta={"seed": 11, "config_hash": "0123abcd"})
    data = dest.read_bytes()
    assert data.startswith(f"# spinsq-dataset schema=1 kind={kind} ".encode())
    assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------- properties

PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def datasets(draw):
    """A small dataset of any kind, drawn by its collector."""
    n = draw(st.integers(2, 4))
    state = DickeState(n, draw(st.integers(0, n)))
    if draw(st.booleans()):
        state = DepolarizedMixture(state, draw(st.sampled_from([0.0, 0.5, 0.9])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    even_k = 2 * draw(st.integers(1, 3))
    kind = draw(st.sampled_from(list(GOLDEN)))
    if kind == "total_spin":
        return collect_total_spin(state, draw(st.integers(2, 6)), rng)
    if kind == "pairs":
        return collect_all_pairs(state, draw(st.integers(2, 3)), rng)
    if kind == "split":
        directions = draw(st.sampled_from(["xyz", "z", "xy"]))
        return collect_split_single(state, even_k, rng, directions=tuple(directions))
    if kind == "random_pairs":
        return collect_random_pairs(state, draw(st.integers(2, 8)), draw(st.integers(1, 3)), rng)
    return collect_random_split(state, draw(st.integers(1, 8)), even_k, rng)


def _written(ds):
    """The file's ``#`` lines, and its column header and data rows."""
    buf = io.StringIO(newline="")
    write_dataset(ds, buf, meta={"seed": 1})
    text = buf.getvalue()
    head = text.rindex("\n", 0, text.index("\r\n")) + 1
    return text[:head], text[head:].split("\r\n")[:-1]


def _read(comments, rows, end="\r\n"):
    return read_dataset(io.StringIO(comments + end.join(rows) + end, newline=""))


def _blocks(ds):
    """Every outcome and slot block of ``ds``, in the dataset's order."""
    return [(name, [(ax.value, arr.tolist()) for ax, arr in getattr(ds, name).items()])
            for name in ("outcomes", "first", "second", "slots") if hasattr(ds, name)]


@PROPERTY
@given(datasets(), st.sampled_from(["\r\n", "\n"]))
def test_round_trip(ds, end):
    back = _read(*_written(ds), end=end)
    assert type(back) is type(ds)
    assert (back.n_qubits, back.k, getattr(back, "l", None)) == (
        ds.n_qubits, ds.k, getattr(ds, "l", None))
    assert _blocks(back) == _blocks(ds)


@PROPERTY
@given(datasets())
def test_every_row_deletion_or_duplication_is_rejected(ds):
    comments, rows = _written(ds)
    for r in range(1, len(rows)):
        with pytest.raises(ValueError):
            _read(comments, rows[:r] + rows[r + 1:])
        with pytest.raises(ValueError):
            _read(comments, rows[:r + 1] + rows[r:])


@PROPERTY
@given(datasets(), st.data())
def test_blank_line_quoted_cell_or_long_token_is_rejected(ds, data):
    comments, rows = _written(ds)
    r = data.draw(st.integers(1, len(rows) - 1), label="row")
    with pytest.raises(ValueError, match="too few columns"):
        _read(comments, rows[:r] + [""] + rows[r:])
    with pytest.raises(ValueError, match="too few columns"):
        _read(comments, rows + [""])
    cells = rows[r].split(",")
    c = data.draw(st.integers(0, len(cells) - 1), label="cell")
    quoted = cells[:c] + [f'"{cells[c]}"'] + cells[c + 1:]
    with pytest.raises(ValueError):
        _read(comments, rows[:r] + [",".join(quoted)] + rows[r + 1:])
    # a text token made longer: "x" + "yz" must not read back as "x"
    text = [c for c, cell in enumerate(cells) if not cell.lstrip("-").isdigit()]
    c = data.draw(st.sampled_from(text), label="text cell")
    tail = data.draw(st.text("xyzfirstsecond", min_size=1, max_size=6), label="tail")
    longer = cells[:c] + [cells[c] + tail] + cells[c + 1:]
    with pytest.raises(ValueError):
        _read(comments, rows[:r] + [",".join(longer)] + rows[r + 1:])
