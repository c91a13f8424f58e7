"""Formats: step database, corpus, feature files, checkpoints."""

import ast
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pkgforge import corpus_io
from pkgforge.corpus_io import CorpusFormatError

from builders import random_checkpoint, random_corpus, random_database
from oracles import load_step_database_json, save_step_database_json


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_db(path, records, matrix, magic=b"PKGS"):
    """Hand-write a steps.jsonl index and the steps.f64 matrix beside it."""
    _write(path, [json.dumps(r) for r in records])
    matrix = np.asarray(matrix, dtype="<f8")
    header = magic + struct.pack("<III", 1, *matrix.shape)
    path.with_suffix(".f64").write_bytes(header + matrix.tobytes())


def _task(task_id="t1", headlines=("a",), task_name="x"):
    return {"task_id": task_id, "task_name": task_name, "headlines": list(headlines)}


class TestStepDatabase:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(
            path,
            [_task("t1", ["jack up the car", "remove the wheel"], "jack up a car")],
            [[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.5, 0.0]],
        )
        db = corpus_io.load_step_database(path)
        assert len(db.tasks) == 1
        assert db.num_headlines == 2
        assert db.embeddings.shape == (2, 4)
        assert db.headlines[1] == "remove the wheel"
        assert db.embeddings.flags.writeable

    @pytest.mark.parametrize("rows", [2, 4])
    def test_row_count_differs_from_headline_count(self, tmp_path, rows):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1", ["a", "b"]), _task("t2", ["c"])], np.ones((rows, 4)))
        with pytest.raises(CorpusFormatError, match=rf"steps\.f64: holds {rows} rows but "
                           r".*steps\.jsonl lists 3 headlines"):
            corpus_io.load_step_database(path)

    def test_empty_task_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1", [])], np.ones((0, 2)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl: task 't1' has no steps"):
            corpus_io.load_step_database(path)

    def test_zero_embedding_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1", ["a", "b"])], [[1.0, 0.0], [0.0, -0.0]])
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl: task 't1' step 1 has zero"):
            corpus_io.load_step_database(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1"), {"task_id": "t2"}], np.ones((1, 1)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl:2: malformed task record"):
            corpus_io.load_step_database(path)

    def test_duplicate_task_id_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1"), _task("t1")], np.ones((2, 1)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl: duplicate task_id 't1'"):
            corpus_io.load_step_database(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_embedding_rejected(self, tmp_path, bad):
        path = tmp_path / "steps.jsonl"
        matrix = np.ones((3, 2))
        matrix[2, 1] = float(bad)
        _write_db(path, [_task("t1"), _task("t2", ["a", "b"], "y")], matrix)
        with pytest.raises(CorpusFormatError, match=r"steps\.f64: row 2 holds a non-finite value"):
            corpus_io.load_step_database(path)

    def test_zero_dimension_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1", ["a", "b"])], np.ones((2, 0)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl: embeddings must have dim"):
            corpus_io.load_step_database(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [], np.ones((0, 3)))
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl: step database contains no"):
            corpus_io.load_step_database(path)

    @pytest.mark.parametrize(
        "field, value", [("task_id", 7), ("task_name", None), ("headline", ["a"])]
    )
    def test_non_string_text_rejected(self, tmp_path, field, value):
        rec = _task()
        if field == "headline":
            rec["headlines"] = [value]
        else:
            rec[field] = value
        path = tmp_path / "steps.jsonl"
        _write_db(path, [rec], np.ones((1, 1)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl:1: malformed .*strings"):
            corpus_io.load_step_database(path)

    def test_headlines_not_a_list_rejected(self, tmp_path):
        # a string would otherwise unpack into one-letter headlines
        rec = _task()
        rec["headlines"] = "ab"
        path = tmp_path / "steps.jsonl"
        _write_db(path, [rec], np.ones((2, 1)))
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl:1: malformed task record"):
            corpus_io.load_step_database(path)

    def test_inline_embedding_layout_asks_for_rerun(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        rec = {"task_id": "t1", "task_name": "x",
               "steps": [{"headline": "a", "embedding": [1.0, 0.0]}]}
        _write(path, [json.dumps(rec)])
        with pytest.raises(CorpusFormatError, match=r"steps\.jsonl:1: .*inline embeddings.*"
                           "rerun `pkgforge synth`"):
            corpus_io.load_step_database(path)

    def test_missing_matrix_names_file(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task()], np.ones((1, 2)))
        (tmp_path / "steps.f64").unlink()
        with pytest.raises(CorpusFormatError, match=r"steps\.f64: missing embedding matrix"):
            corpus_io.load_step_database(path)

    def test_bad_magic_names_file(self, tmp_path):
        # a feature file's magic is not a step matrix's
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task()], np.ones((1, 2)), magic=b"PKGF")
        with pytest.raises(CorpusFormatError, match=r"steps\.f64: bad magic b'PKGF'"):
            corpus_io.load_step_database(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b[:-1], r"steps\.f64: truncated payload, expected 32 bytes, got 31"),
            (lambda b: b[:10], r"steps\.f64: truncated header"),
            (lambda b: b + b"\x00", r"steps\.f64: trailing bytes after payload"),
            (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], r"steps\.f64: unsupported version 2"),
        ],
    )
    def test_damaged_matrix_names_file(self, tmp_path, edit, message):
        path = tmp_path / "steps.jsonl"
        _write_db(path, [_task("t1", ["a", "b"])], np.ones((2, 2)))
        matrix = tmp_path / "steps.f64"
        matrix.write_bytes(edit(matrix.read_bytes()))
        with pytest.raises(CorpusFormatError, match=message):
            corpus_io.load_step_database(path)

    def test_layout(self, tmp_path):
        db = corpus_io.StepDatabase.from_tasks(
            [("t1", "x", ["a", "b"]), ("t2", "y", ["c"])],
            [[1.0, -0.0], [5e-324, 2.0], [3.0, 4.0]],
        )
        path = tmp_path / "steps.jsonl"
        corpus_io.save_step_database(db, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"task_id":"t1","task_name":"x","headlines":["a","b"]}',
            '{"task_id":"t2","task_name":"y","headlines":["c"]}',
        ]
        raw = (tmp_path / "steps.f64").read_bytes()
        assert raw[:16] == b"PKGS" + struct.pack("<III", 1, 3, 2)
        assert raw[16:] == db.embeddings.astype("<f8").tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["steps.f64", "steps.jsonl"]

    def test_save_keeps_the_loaded_bytes(self, tmp_path):
        db = random_database(np.random.default_rng(5))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus_io.save_step_database(db, first)
        back = corpus_io.load_step_database(first)
        np.testing.assert_array_equal(back.embeddings, db.embeddings)
        assert back.headlines == db.headlines and back.tasks == db.tasks
        corpus_io.save_step_database(back, second)
        for suffix in (".jsonl", ".f64"):
            assert first.with_suffix(suffix).read_bytes() == second.with_suffix(suffix).read_bytes()


# signed zeros, subnormals and the edges of the f64 range, beside arbitrary finite values
entries = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def step_tasks(draw):
    """(task entries, embedding rows) for `StepDatabase.from_tasks`."""
    dim = draw(st.integers(1, 6))
    tasks, rows = [], []
    for t in range(draw(st.integers(1, 4))):
        headlines = []
        for _ in range(draw(st.integers(1, 4))):
            row = draw(st.lists(entries, min_size=dim, max_size=dim))
            if not any(row):  # the constructor rejects a zero row
                row[-1] = 1.0
            headlines.append(draw(st.text(max_size=8)))
            rows.append(row)
        tasks.append((f"t{t}", draw(st.text(max_size=8)), headlines))
    return tasks, rows


class TestAgainstInlineJsonLayout:
    @settings(max_examples=150, deadline=None)
    @given(database=step_tasks())
    @example(database=([("t0", "x", ["a", "b"])],
                       [[-0.0, 5e-324, 1e308], [-1e308, 0.0, -5e-324]]))
    @example(database=([("t0", "", ["\"\\\n"]), ("t1", "é", [""])], [[1.1e-308], [-1.0]]))
    def test_round_trip_equals_oracle(self, database):
        db = corpus_io.StepDatabase.from_tasks(*database)
        with tempfile.TemporaryDirectory() as tmp:
            binary, inline = Path(tmp) / "steps.jsonl", Path(tmp) / "inline.jsonl"
            corpus_io.save_step_database(db, binary)
            save_step_database_json(db, inline)
            got, want = corpus_io.load_step_database(binary), load_step_database_json(inline)
        assert got.tasks == want.tasks
        assert got.headlines == want.headlines
        assert got.embeddings.dtype == want.embeddings.dtype == np.float64
        assert got.embeddings.shape == want.embeddings.shape
        assert got.embeddings.tobytes() == want.embeddings.tobytes()


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.pkgf"
        corpus_io.write_feature_file(path, data)
        back = corpus_io.read_feature_file(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.pkgf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CorpusFormatError, match=r"f\.pkgf: bad magic b'NOPE'"):
            corpus_io.read_feature_file(path)

    def test_truncated_payload_names_file(self, tmp_path):
        path = tmp_path / "f.pkgf"
        corpus_io.write_feature_file(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorpusFormatError, match="f.pkgf"):
            corpus_io.read_feature_file(path)

    def test_header_declaring_more_than_the_file_holds(self, tmp_path):
        path = tmp_path / "f.pkgf"
        path.write_bytes(b"PKGF" + struct.pack("<III", 1, 2**32 - 1, 2**32 - 1) + bytes(8))
        with pytest.raises(CorpusFormatError, match=r"f\.pkgf: truncated payload, .* got 8$"):
            corpus_io.read_feature_file(path)

    def test_non_finite_rejected_with_file_and_first_row(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            data = np.ones((5, 3))
            data[3, 1] = bad
            data[4, 0] = bad
            path = tmp_path / "f.pkgf"
            corpus_io.write_feature_file(path, data)
            with pytest.raises(CorpusFormatError, match=r"f\.pkgf: row 3 "):
                corpus_io.read_feature_file(path)


class TestSegmentCorpus:
    def test_load(self, tmp_path):
        rng = np.random.default_rng(1)
        corpus = corpus_io.SegmentCorpus(
            videos=[
                corpus_io.Video("a", "task a", rng.normal(size=(3, 4))),
                corpus_io.Video("b", None, rng.normal(size=(5, 4))),
            ]
        )
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        back = corpus_io.load_segment_corpus(manifest)
        assert [v.video_id for v in back.videos] == ["a", "b"]
        assert back.videos[1].corpus_task_name is None
        assert back.num_segments == 8
        assert back.dim == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl", "segments.f32"]
        for video, want in zip(back.videos, corpus.videos):
            assert video.segments.dtype == np.float32
            np.testing.assert_array_equal(video.segments, want.segments.astype(np.float32))

    def test_videos_are_views_of_one_matrix_in_manifest_order(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[
            corpus_io.Video("a", None, np.full((2, 3), 1.0)),
            corpus_io.Video("empty", None, np.zeros((0, 3))),
            corpus_io.Video("b", None, np.full((4, 3), 2.0)),
        ])
        back = corpus_io.load_segment_corpus(corpus_io.save_segment_corpus(corpus, tmp_path))
        matrix = corpus_io.read_feature_file(tmp_path / "segments.f32")
        assert matrix.shape == (6, 3)
        assert [v.segments.shape for v in back.videos] == [(2, 3), (0, 3), (4, 3)]
        assert all(v.segments.base is back.videos[0].segments.base for v in back.videos)
        np.testing.assert_array_equal(np.concatenate([v.segments for v in back.videos]), matrix)

    def test_segment_count_mismatch(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[corpus_io.Video("a", None, np.ones((3, 2)))])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["num_segments"] = 4
        manifest.write_text(json.dumps(rec) + "\n")
        mismatch = r"segments\.f32: holds 3 rows but .*manifest\.jsonl lists 4 segments$"
        with pytest.raises(CorpusFormatError, match=mismatch):
            corpus_io.load_segment_corpus(manifest)

    def test_matrix_with_rows_no_video_lists(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[
            corpus_io.Video("a", None, np.ones((3, 2))), corpus_io.Video("b", None, np.ones((1, 2)))
        ])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        mismatch = r"segments\.f32: holds 4 rows but .*manifest\.jsonl lists 3 segments$"
        with pytest.raises(CorpusFormatError, match=mismatch):
            corpus_io.load_segment_corpus(manifest)

    def test_missing_matrix_names_both_files(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[corpus_io.Video("a", None, np.ones((3, 2)))])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        (tmp_path / "segments.f32").unlink()
        missing = r"segments\.f32: missing segment matrix for .*manifest\.jsonl$"
        with pytest.raises(CorpusFormatError, match=missing):
            corpus_io.load_segment_corpus(manifest)

    def test_negative_segment_count_names_its_line(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[
            corpus_io.Video("a", None, np.ones((3, 2))), corpus_io.Video("b", None, np.ones((1, 2)))
        ])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["num_segments"] = -1
        manifest.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        negative = r"manifest\.jsonl:2: malformed manifest record: num_segments -1 is negative$"
        with pytest.raises(CorpusFormatError, match=negative):
            corpus_io.load_segment_corpus(manifest)

    def test_per_video_feature_file_layout_asks_for_a_new_synth(self, tmp_path):
        # the layout before segments.f32: one features/<video_id>.pkgf per video
        (tmp_path / "features").mkdir()
        corpus_io.write_feature_file(tmp_path / "features" / "a.pkgf", np.ones((3, 2)))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({"video_id": "a", "task_name": None, "num_segments": 3,
                                        "feature_file": "features/a.pkgf"}) + "\n")
        old = (r"manifest\.jsonl:1: malformed manifest record: names a per-video feature file, "
               r"a layout this version no longer reads; rerun `pkgforge synth`$")
        with pytest.raises(CorpusFormatError, match=old):
            corpus_io.load_segment_corpus(manifest)

    def test_repeated_video_id_names_both_lines(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[
            corpus_io.Video("a", None, np.ones((3, 2))), corpus_io.Video("b", None, np.ones((1, 2)))
        ])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines, lines[0]]) + "\n")
        repeated = r":3: malformed manifest record: video_id 'a' repeats line 1"
        with pytest.raises(CorpusFormatError, match=repeated):
            corpus_io.load_segment_corpus(manifest)

    @pytest.mark.parametrize(
        "field, value",
        [("video_id", 5), ("feature_file", 5), ("task_name", ["a"]), ("num_segments", 3.0)],
    )
    def test_wrong_typed_manifest_field_rejected(self, tmp_path, field, value):
        corpus = corpus_io.SegmentCorpus(videos=[corpus_io.Video("a", "t", np.ones((3, 2)))])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        rec = json.loads(manifest.read_text())
        rec[field] = value
        manifest.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match=":1: malformed manifest record"):
            corpus_io.load_segment_corpus(manifest)

    def test_empty_corpus(self, tmp_path):
        manifest = corpus_io.save_segment_corpus(corpus_io.SegmentCorpus(videos=[]), tmp_path)
        back = corpus_io.load_segment_corpus(manifest)
        assert back.videos == [] and back.dim is None
        assert corpus_io.read_feature_file(tmp_path / "segments.f32").shape == (0, 0)


class TestCheckpoints:
    def test_metadata_must_be_an_object(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(6))
        ckpt.metadata = 5
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(ckpt, path)
        named = r"model\.pkgc:1: malformed checkpoint header: metadata 5 is not a JSON object"
        with pytest.raises(CorpusFormatError, match=named):
            corpus_io.load_checkpoint(path)

    def test_round_trip_values(self, tmp_path):
        rng = np.random.default_rng(4)
        ckpt = random_checkpoint(rng)
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(ckpt, path)
        back = corpus_io.load_checkpoint(path)
        assert back.shapes == ckpt.shapes
        assert back.metadata == ckpt.metadata
        np.testing.assert_array_equal(back.weights, ckpt.weights)
        unpacked = back.unpack()
        assert set(unpacked) == {name for name, _, _ in ckpt.shapes}

    def test_unpack_keeps_declared_shapes(self):
        # a fan-in-1 weight has rows == 1 like a bias, and must keep its (1, 3) shape
        shapes = [("head.vtm_db.w0", 2, 1), ("head.vtm_db.b0", 1, 1),
                  ("head.vtm_db.w1", 1, 3), ("head.vtm_db.b1", 1, 3)]
        ckpt = corpus_io.checkpoint_from_params(np.arange(9.0), shapes, {})
        unpacked = ckpt.unpack()
        assert {name: a.shape for name, a in unpacked.items()} == {
            name: (rows, cols) for name, rows, cols in shapes
        }
        np.testing.assert_array_equal(unpacked["head.vtm_db.w1"], [[3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(unpacked["head.vtm_db.b1"], [[6.0, 7.0, 8.0]])

    def test_truncated_weights(self, tmp_path):
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(random_checkpoint(np.random.default_rng(5)), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CorpusFormatError, match=r"model\.pkgc: truncated weights"):
            corpus_io.load_checkpoint(path)

    def test_trailing_bytes_after_weights(self, tmp_path):
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(random_checkpoint(np.random.default_rng(5)), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(CorpusFormatError, match=r"model\.pkgc: trailing bytes after weights"):
            corpus_io.load_checkpoint(path)

    def test_declared_size_is_checked_before_reading(self, tmp_path):
        # 4e18 declared bytes against 16 held: refused from the file size, never allocated
        path = tmp_path / "model.pkgc"
        header = {"shapes": [["a", 1000000000, 1000000000]], "metadata": {}}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(CorpusFormatError, match="truncated weights, expected "
                           "4000000000000000000 bytes, got 16"):
            corpus_io.load_checkpoint(path)

    def test_weights_load_writeable_as_saved(self, tmp_path):
        path = tmp_path / "model.pkgc"
        ckpt = random_checkpoint(np.random.default_rng(5))
        corpus_io.save_checkpoint(ckpt, path)
        weights = corpus_io.load_checkpoint(path).weights
        assert weights.dtype == np.dtype("<f4") and weights.flags.writeable
        assert np.array_equal(weights, ckpt.weights)

    @pytest.mark.parametrize("rows, cols", [(-1, 4), (0, 4), (2, 0)])
    def test_non_positive_shape_entry(self, tmp_path, rows, cols):
        # -1x4 with a 2x4 entry declares 4 weights, which 16 payload bytes satisfy
        path = tmp_path / "model.pkgc"
        header = {"shapes": [["a", rows, cols], ["b", 2, 4]], "metadata": {}}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(CorpusFormatError, match=f"'a' is {rows}x{cols}"):
            corpus_io.load_checkpoint(path)

    @pytest.mark.parametrize("shapes, message", [
        ([["a", "2", 1], ["b", 2, 4]], "'a' rows '2' is not a JSON integer"),
        ([["a", 2, 1.5], ["b", 2, 4]], "'a' cols 1.5 is not a JSON integer"),
        ([["a", 1, 2], [7, True, 2]], "shape name 7 is not a string"),
        ([["a", 1, 2], ["7", True, 2]], "'7' rows True is not a JSON integer"),
    ])
    def test_wrong_typed_shape_entry(self, tmp_path, shapes, message):
        # these once loaded coerced: "2" as 2, 1.5 as 1, 7 as "7", True as 1
        path = tmp_path / "model.pkgc"
        header = {"shapes": shapes, "metadata": {}}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(64))
        with pytest.raises(CorpusFormatError, match=f"malformed checkpoint header: {message}"):
            corpus_io.load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, tmp_path, bad):
        params = np.arange(9.0)
        params[6] = bad
        shapes = [("w0", 2, 3), ("b0", 1, 3)]
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(corpus_io.checkpoint_from_params(params, shapes, {}), path)
        with pytest.raises(CorpusFormatError, match="'b0' holds a non-finite weight"):
            corpus_io.load_checkpoint(path)


class TestRoundTripBytes:
    """save -> load -> save must reproduce bytes exactly for every format."""

    def test_step_database(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            db = random_database(rng)
            p1, p2 = tmp_path / f"a{seed}.jsonl", tmp_path / f"b{seed}.jsonl"
            corpus_io.save_step_database(db, p1)
            corpus_io.save_step_database(corpus_io.load_step_database(p1), p2)
            for suffix in (".jsonl", ".f64"):
                assert p1.with_suffix(suffix).read_bytes() == p2.with_suffix(suffix).read_bytes()

    def test_corpus(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            corpus = random_corpus(rng, dim=3, n_videos=int(rng.integers(1, 4)))
            d1, d2 = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
            m1 = corpus_io.save_segment_corpus(corpus, d1)
            m2 = corpus_io.save_segment_corpus(corpus_io.load_segment_corpus(m1), d2)
            for name in ("manifest.jsonl", "segments.f32"):
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
            assert sorted(p.name for p in d1.iterdir()) == ["manifest.jsonl", "segments.f32"]


class TestAtomicWrite:
    def test_complete_write_replaces_target(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n", encoding="utf-8")
        with corpus_io.atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_writer_raising_mid_write_leaves_nothing(self, tmp_path):
        path = tmp_path / "model.pkgc"
        with pytest.raises(RuntimeError, match="interrupted"):
            with corpus_io.atomic_write(path, binary=True) as fh:
                fh.write(b"half a header")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("previous\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with corpus_io.atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["graph.json"]


# calls that read a file or decode JSON, and the exceptions a reader would catch to name them
_READS = {"open", "read", "read_text", "read_bytes", "readline", "parse_json", "loads"}
_READ_FAULTS = {"KeyError", "TypeError", "ValueError", "CorpusFormatError", "UnicodeDecodeError"}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


class TestOneReaderFrame:
    """Every reader takes JSON through `corpus_io.JsonFile`, so one rule names each fault."""

    @pytest.mark.parametrize("text, detail", [
        ('{"a": "x\ty"}', "Invalid control character at: column 9"),
        ('{"a": 1', "Expecting ',' delimiter: column 8"),
        ('{"a": 1}}', "Extra data: column 9"),
    ])
    def test_decode_error_names_one_line(self, tmp_path, text, detail):
        # the frame names the file's line; json's own "line 1 column N (char M)" would
        # name a second line, counted inside the first
        path = tmp_path / "x.jsonl"
        path.write_text(f'{{"a": 0}}\n\n{{"a": 2}}\n{text}\n{{}}\n')
        named = re.escape(f"{path}:4: malformed thing: {detail}") + "$"
        with pytest.raises(CorpusFormatError, match=named):
            with corpus_io.JsonFile(path, "thing") as src:
                list(src.lines())
        path.write_text(f"{text}\n")
        with pytest.raises(CorpusFormatError, match=named.replace(":4:", ":1:")):
            with corpus_io.JsonFile(path, "thing") as src:
                src.header()

    def test_no_other_module_decodes_json_or_names_read_faults(self):
        offenders = []
        for path in sorted(Path(corpus_io.__file__).parent.glob("*.py")):
            if path.name == "corpus_io.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if "parse_json" in (getattr(node, "name", None), getattr(node, "id", None),
                                    getattr(node, "attr", None)):
                    offenders.append(f"{path.name}:{node.lineno} parse_json")
                if not isinstance(node, ast.Try):
                    continue
                calls = set().union(*(_names(c.func) for stmt in node.body
                                      for c in ast.walk(stmt) if isinstance(c, ast.Call)))
                for handler in node.handlers:
                    caught = _READ_FAULTS if handler.type is None else _names(handler.type)
                    if calls & _READS and caught & _READ_FAULTS:
                        offenders.append(f"{path.name}:{handler.lineno} except around a read")
        assert offenders == []


# calls that write a file whatever their arguments
_WRITES = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def _writes_a_file(call: ast.Call) -> bool:
    """A call of a writer in _WRITES, or an `open` given a mode that writes."""
    name = _names(call.func) & (_WRITES | {"open"})
    if name != {"open"}:
        return bool(name)
    modes = [n.value for arg in (*call.args, *call.keywords) for n in ast.walk(arg)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return any(set(m) <= set("rwxabt+") and set(m) & set("wxa+") for m in modes)


class TestOneWriter:
    """Every file the package writes appears whole under its name, or not at all."""

    def test_no_module_writes_a_file_but_through_atomic_write(self):
        offenders = []
        for path in sorted(Path(corpus_io.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            exempt = {id(n) for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef) and path.name == "corpus_io.py"
                      and f.name == "atomic_write" for n in ast.walk(f)}
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and id(node) not in exempt
                          and _writes_a_file(node)]
        assert offenders == []

    def test_the_check_finds_a_direct_write(self):
        source = 'open(p, "wb").write(b"")\nopen(p, mode="a")\nPath(p).write_text("")\n'
        calls = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)]
        assert sum(map(_writes_a_file, calls)) == 3
        reads = 'open(p, "rb")\nopen(p)\nPath(p).read_text()\n'
        assert not any(_writes_a_file(n) for n in ast.walk(ast.parse(reads))
                       if isinstance(n, ast.Call))


def _imports_gc(tree: ast.AST) -> list[int]:
    """The lines of `import gc` or `from gc import ...` statements in `tree`."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"]


class TestNoCollectorTuning:
    """Pseudo labels are columns, not per-segment objects, so no module needs to pause or
    force the cyclic garbage collector."""

    def test_no_module_imports_gc(self):
        offenders = [f"{path.name}:{line}"
                     for path in sorted(Path(corpus_io.__file__).parent.glob("*.py"))
                     for line in _imports_gc(ast.parse(path.read_text(encoding="utf-8")))]
        assert offenders == []

    def test_the_check_finds_an_import(self):
        source = "import gc\nfrom gc import collect\nimport os, gc as g\nimport gcx\n"
        assert _imports_gc(ast.parse(source)) == [1, 2, 3]
