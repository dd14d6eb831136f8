import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuvalkit import dataio
from fuvalkit.dataio import (
    ParseError,
    SyntheticMode,
    SyntheticSpec,
    gen_synthetic,
    parse_libsvm,
    serialize_libsvm,
)
from fuvalkit.problems import LossKind, objective


class TestParseLibsvm:
    def test_basic_two_class(self):
        text = "+1 1:0.5 3:2.0\n-1 2:1.5\n"
        problem = parse_libsvm(text)
        assert problem.n == 2
        assert problem.dim == 3
        assert problem.examples[0].label == 1.0
        assert problem.examples[1].label == -1.0
        np.testing.assert_array_equal(problem.examples[0].indices, [1, 3])
        np.testing.assert_allclose(problem.examples[0].values, [0.5, 2.0])

    def test_smaller_raw_label_maps_to_minus_one(self):
        problem = parse_libsvm("2 1:1\n4 1:1\n")
        assert problem.examples[0].label == -1.0
        assert problem.examples[1].label == 1.0

    def test_comments_and_blank_lines_skipped(self):
        text = "# header comment\n\n+1 1:1.0  # trailing\n\n-1 1:2.0\n"
        problem = parse_libsvm(text)
        assert problem.n == 2

    def test_accepts_file_object(self):
        problem = parse_libsvm(io.StringIO("+1 1:1\n-1 2:1\n"))
        assert problem.n == 2

    def test_dim_override(self):
        problem = parse_libsvm("+1 1:1\n-1 2:1\n", dim=10)
        assert problem.dim == 10

    def test_least_squares_labels_kept_verbatim(self):
        problem = parse_libsvm("0.25 1:1\n-3.5 1:2\n", loss_kind=LossKind.LEAST_SQUARES)
        assert [e.label for e in problem.examples] == [0.25, -3.5]

    def test_nonincreasing_index_rejected_with_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("+1 1:1\n-1 3:1 2:1\n")
        assert exc.value.line_no == 2

    def test_bad_label_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("abc 1:1\n")
        assert exc.value.line_no == 1

    def test_bad_feature_token_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 1:x\n")
        with pytest.raises(ParseError):
            parse_libsvm("+1 1\n")

    def test_three_labels_rejected_for_logistic(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 1:1\n2 1:1\n3 1:1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("# only a comment\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 2:1 2:3\n")


def _outcome(parse):
    """The arrays `parse` returns, as bytes, or its exception's type, line
    number and message."""
    try:
        return [a.tobytes() for a in parse()]
    except ParseError as exc:
        return type(exc), exc.line_no, str(exc)


def _by_chunks(text):
    return tuple(map(np.concatenate, zip(*dataio._parse_chunks(text))))


def _by_tokens(text):
    """The per-token loop over the whole text: the definition of the format."""
    return dataio._parse_lines(text.splitlines(), 1)


def _assert_same_as_tokens(text):
    expected = _outcome(lambda: _by_tokens(text))
    assert _outcome(lambda: _by_chunks(text)) == expected


_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.12e}"),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.5g}"),
    st.sampled_from(["+1", "-1", "1", "0", "-0.0", "1e-3", "2E+5", ".5", "-7.", "0.1000000000000000055511151231257827"]),
)


@st.composite
def libsvm_texts(draw):
    """LIBSVM texts with label-only rows, trailing spaces, CRLF, tabs,
    comments, blank lines and the odd malformed token."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        if kind == "comment":
            lines.append("# " + draw(st.sampled_from(["header", "1:2 3:4", ""])))
            continue
        cols = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        fields = [draw(_NUMBER)] + [f"{c}:{draw(_NUMBER)}" for c in cols]
        if fields[1:] and draw(st.integers(0, 9)) == 0:
            bad = draw(st.sampled_from(["1", "1:2:3", "3.0:1", "0:1", "1:", ":1", "1:x", "1_0:2", "1:nan(1)"]))
            fields.insert(draw(st.integers(1, len(fields))), bad)
        sep = draw(st.sampled_from([" "] * 8 + ["\t", "  "]))
        lines.append(sep.join(fields) + draw(st.sampled_from(["", "", " ", "  # note"])))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)) + draw(st.sampled_from(["", "+1 2:1.5"]))


@st.composite
def damaged_plain_texts(draw):
    """Plain texts, which the bulk path takes, with one or two snippets put
    anywhere: the scans must send each damaged chunk to the loop or parse it
    as the loop does."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cols = sorted(draw(st.sets(st.integers(1, 12), max_size=4)))
        fields = [draw(_NUMBER)] + [f"{c}:{draw(_NUMBER)}" for c in cols]
        rows.append(" ".join(fields) + draw(st.sampled_from(["", " "])) + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    for _ in range(draw(st.integers(1, 2))):
        pos = draw(st.integers(0, len(text)))
        snippet = draw(st.sampled_from(["\n", " ", ":", "1", " 1", "1:", " 1:", ":1", "\n\n", " \n", "x", ".", "-", "e"]))
        text = text[:pos] + snippet + text[pos:]
    return text


class TestBulkParse:
    """Chunks proved plain by the byte scans go through one np.fromstring;
    every chunk must give what the per-token loop gives."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(libsvm_texts(), damaged_plain_texts()))
    def test_chunked_parse_equals_the_token_loop(self, text):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "CHUNK_CHARS", 64)  # chunk boundaries fall everywhere
            _assert_same_as_tokens(text)
        _assert_same_as_tokens(text)

    @pytest.mark.parametrize(
        "text",
        [
            "+1 1:0.5 3:2\n-1 2:1.5\n",
            "+1 1:0.5 3:2 \n-1 2:1.5 \n-1 \n",  # trailing spaces
            "+1 1:0.5 3:2\r\n-1 2:1.5\r\n",  # CRLF
            "+1 1:0.5 3:2 \r\n-1\r\n+1 4:-0.0",  # both, a label-only row, no final newline
        ],
    )
    def test_plain_text_takes_the_bulk_path(self, text):
        part = dataio._parse_plain(text)
        assert part is not None
        assert [a.tobytes() for a in part] == [a.tobytes() for a in _by_tokens(text)]

    @pytest.mark.parametrize(
        "text",
        ["+1\t1:2\n", "# c\n+1 1:2\n", "+1 1:2\n\n", "+1  1:2\n", "+1 1:2  \n", "+1 1:2\r-1 1:2\n",
         "+1 1:nan\n", "+1 ٣:1\n", "+1 1_0:1\n",
         # a colon-less last token must not pass for a trailing space and
         # stand in for the label of a blank line
         "0.0 1:0.0 2:0.0 1\n0.0\n\n", "+1 1:2 5\n \n-1 1:2\n", "+1 1:2 5\r\n\r\n",
         # an empty value must not be made up by an unterminated last line
         "7 11:\n2.5", "+1 1:\n-1 2:1 3:4.5e1"],
    )
    def test_other_text_falls_back(self, text):
        assert dataio._parse_plain(text) is None
        _assert_same_as_tokens(text)

    @pytest.mark.parametrize(
        "line",
        [
            "+1 1", "+1 1:2:3", "+1 3.0:1", "+1 0:1", "+1 1:", "+1 :1", "1:2 3:4", "+1 ٣:1",
            f"+1 {2**53 + 1}:1", "+1 1:nan(1)", "+1 -2:1", "+1 1:1e", "+1 1:2-3",
            "abc 1:1", "+1 1:x", "+1 3:1 2:1", "+1 2:1 2:3",
        ],
    )
    def test_errors_match_the_token_loop(self, line, monkeypatch):
        monkeypatch.setattr(dataio, "CHUNK_CHARS", 64)
        good = "".join(f"{(-1) ** i:+d} {i % 7 + 1}:0.{i}\n" for i in range(30))
        for text in (line + "\n" + good, good + line + "\n" + good):  # line 1, then in a later chunk
            _assert_same_as_tokens(text)

    def test_problem_holds_the_token_loops_arrays(self, monkeypatch):
        """parse_libsvm fills arrays sized by the colon count; colons in
        comments leave slack that must not show."""
        monkeypatch.setattr(dataio, "CHUNK_CHARS", 64)
        good = "".join(f"{i % 3 - 1.5} {i % 5 + 1}:0.{i} 9:{i}e-3 \r\n" for i in range(20))
        text = "# a:1 b:2\n" + good + "2.5 # 1:2 3:4\n" + good + "-1 2:7  # c:d\n"
        problem = parse_libsvm(text, loss_kind=LossKind.LEAST_SQUARES)
        labels, lengths, cols, vals = _by_tokens(text)
        assert problem.labels.tobytes() == labels.tobytes()
        assert problem.indptr.tolist() == [0, *np.cumsum(lengths).tolist()]
        assert problem.indices.tobytes() == cols.tobytes()
        assert problem.data.tobytes() == vals.tobytes()

    def test_deprecation_warning_is_a_refusal(self, monkeypatch):
        """numpy before 2.3 warns and returns a prefix where fromstring stops
        early; the bulk path must refuse that chunk."""

        def warn_and_truncate(data, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.zeros(0)

        monkeypatch.setattr(dataio.np, "fromstring", warn_and_truncate)
        assert dataio._parse_plain("+1 1:2\n") is None


class TestRoundTrip:
    @pytest.mark.parametrize(
        "mode,kind",
        [
            (SyntheticMode.INTERPOLATING, LossKind.LEAST_SQUARES),
            (SyntheticMode.LOGISTIC, LossKind.LOGISTIC),
        ],
    )
    def test_serialize_parse_round_trip(self, mode, kind):
        problem, _ = gen_synthetic(SyntheticSpec(n=8, d=5, seed=42, mode=mode))
        text = serialize_libsvm(problem)
        back = parse_libsvm(text, loss_kind=kind, dim=problem.dim)
        assert back.n == problem.n
        for a, b in zip(problem.examples, back.examples):
            assert a.label == b.label
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)


class TestGenSynthetic:
    def test_same_seed_same_problem(self):
        spec = SyntheticSpec(n=10, d=4, seed=5, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.3)
        p1, _ = gen_synthetic(spec)
        p2, _ = gen_synthetic(spec)
        assert serialize_libsvm(p1) == serialize_libsvm(p2)

    def test_different_seed_different_problem(self):
        base = dict(n=10, d=4, mode=SyntheticMode.INTERPOLATING)
        p1, _ = gen_synthetic(SyntheticSpec(seed=1, **base))
        p2, _ = gen_synthetic(SyntheticSpec(seed=2, **base))
        assert serialize_libsvm(p1) != serialize_libsvm(p2)

    def test_interpolating_known_optimum(self):
        problem, w_star = gen_synthetic(SyntheticSpec(n=20, d=5, seed=9))
        assert w_star is not None
        assert objective(problem, w_star) <= 1e-16

    def test_noisy_mode_has_no_known_optimum(self):
        problem, w_star = gen_synthetic(
            SyntheticSpec(n=20, d=5, seed=9, mode=SyntheticMode.NOISY_LEAST_SQUARES, noise_std=0.5)
        )
        assert w_star is None
        assert problem.loss_kind is LossKind.LEAST_SQUARES

    def test_logistic_mode_labels_and_kind(self):
        problem, w_star = gen_synthetic(
            SyntheticSpec(n=50, d=5, seed=3, mode=SyntheticMode.LOGISTIC)
        )
        assert w_star is None
        assert problem.loss_kind is LossKind.LOGISTIC
        assert set(e.label for e in problem.examples) <= {-1.0, 1.0}

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=0, d=4, seed=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, d=4, seed=1, noise_std=-1.0)
