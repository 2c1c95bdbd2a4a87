"""The text readers raise FormatError, and nothing else, on malformed input.

Fuzzed inputs are lines of short tokens (small integers, rationals, words)
and single-token corruptions of valid files.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagtwin import complexes as cx
from flagtwin import graphs as gr
from flagtwin import radon as rd
from flagtwin.errors import FormatError

_TOKEN = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["x", "dim", "1/0", "q/2", "3/", "/4", "1/2", "-1/3", "0.5", "1e3", "0/0"]),
    st.text(alphabet="0123456789-+/.dimxq", min_size=1, max_size=3),
)
_TEXT = st.lists(st.lists(_TOKEN, max_size=4).map(" ".join), max_size=8).map("\n".join)


def _valid_files():
    graph, complex_, embedding = io.StringIO(), io.StringIO(), io.StringIO()
    gr.write_graph(gr.cycle_graph(5), graph)
    cx.write_complex(cx.two_clique_complex(gr.cycle_graph(5), 2), complex_)
    rd.write_embedding(rd.sample_embedding(4, 2, 1, denominator=7), embedding)
    return graph.getvalue(), complex_.getvalue(), embedding.getvalue()


_VALID = _valid_files()
_READERS = (gr.read_graph, cx.read_complex, rd.read_embedding)


@st.composite
def _corrupted(draw, text):
    """`text` with one whitespace-separated token replaced, dropped or doubled."""
    lines = [line.split(" ") for line in text.splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    how = draw(st.sampled_from(["replace", "drop", "double", "truncate"]))
    if how == "replace":
        lines[i][j] = draw(_TOKEN)
    elif how == "drop":
        del lines[i][j]
    elif how == "double":
        lines[i].insert(j, lines[i][j])
    else:
        lines = lines[:i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _only_format_error(reader, text):
    try:
        reader(io.StringIO(text))
    except FormatError:
        pass


@pytest.mark.parametrize("which", range(3))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_text_raises_only_format_error(which, data):
    _only_format_error(_READERS[which], data.draw(_TEXT))


@pytest.mark.parametrize("which", range(3))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_file_raises_only_format_error(which, data):
    _only_format_error(_READERS[which], data.draw(_corrupted(_VALID[which])))


@pytest.mark.parametrize(
    "reader, text",
    [
        (gr.read_graph, "2 1\n0 x\n"),
        (cx.read_complex, "a 1\n"),
        (cx.read_complex, "2 0\ndim z 2\n0\n1\n"),
        (cx.read_complex, "2 0\ndim 0 two\n0\n1\n"),
        (cx.read_complex, "2 0\ndim 0 2\n0\nq\n"),
        (cx.read_complex, "2 0\ndim 0 -1\n"),
        (rd.read_embedding, "a 1\n"),
        (rd.read_embedding, "1 1\nq/2\n"),
        (rd.read_embedding, "1 1\n1/0\n"),
        (rd.read_embedding, "1 1\n3/\n"),
        (rd.read_embedding, "-1 1\n"),
        (rd.read_embedding, "3 0\n\n"),  # two of three point lines missing
    ],
)
def test_known_malformed_inputs(reader, text):
    with pytest.raises(FormatError):
        reader(io.StringIO(text))


def test_zero_dimensional_embedding_roundtrip():
    # its point lines are empty but present, unlike the missing lines above
    emb = rd.Embedding(0, ((), ()))
    buf = io.StringIO()
    rd.write_embedding(emb, buf)
    buf.seek(0)
    assert rd.read_embedding(buf) == emb
