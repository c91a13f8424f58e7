"""Formats: step database, corpus, feature files, checkpoints."""

import json

import numpy as np
import pytest

from pkgforge import corpus_io
from pkgforge.corpus_io import CorpusFormatError

from builders import random_checkpoint, random_corpus, random_database


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestStepDatabase:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write(
            path,
            [
                json.dumps(
                    {
                        "task_id": "t1",
                        "task_name": "jack up a car",
                        "steps": [
                            {"headline": "jack up the car", "embedding": [1.0, 0.0, 0.0, 2.0]},
                            {"headline": "remove the wheel", "embedding": [0.0, 1.0, 0.5, 0.0]},
                        ],
                    }
                )
            ],
        )
        db = corpus_io.load_step_database(path)
        assert len(db.tasks) == 1
        assert db.num_headlines == 2
        assert db.embeddings.shape == (2, 4)
        assert db.headlines[1] == "remove the wheel"

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write(
            path,
            [
                json.dumps(
                    {
                        "task_id": "t1",
                        "task_name": "x",
                        "steps": [
                            {"headline": "a", "embedding": [1.0, 0.0, 0.0, 1.0]},
                            {"headline": "b", "embedding": [1.0, 0.0, 0.0, 1.0, 1.0]},
                        ],
                    }
                )
            ],
        )
        with pytest.raises(CorpusFormatError, match="dimension"):
            corpus_io.load_step_database(path)

    def test_empty_task_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write(path, [json.dumps({"task_id": "t1", "task_name": "x", "steps": []})])
        with pytest.raises(CorpusFormatError, match="no steps"):
            corpus_io.load_step_database(path)

    def test_zero_embedding_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _write(
            path,
            [
                json.dumps(
                    {
                        "task_id": "t1",
                        "task_name": "x",
                        "steps": [{"headline": "a", "embedding": [0.0, 0.0]}],
                    }
                )
            ],
        )
        with pytest.raises(CorpusFormatError, match="zero embedding"):
            corpus_io.load_step_database(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        good = json.dumps(
            {"task_id": "t1", "task_name": "x", "steps": [{"headline": "a", "embedding": [1.0]}]}
        )
        _write(path, [good, '{"task_id": "t2"}'])
        with pytest.raises(CorpusFormatError, match=":2:"):
            corpus_io.load_step_database(path)

    def test_duplicate_task_id_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        rec = json.dumps(
            {"task_id": "t1", "task_name": "x", "steps": [{"headline": "a", "embedding": [1.0]}]}
        )
        _write(path, [rec, rec])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            corpus_io.load_step_database(path)


    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_embedding_rejected(self, tmp_path, bad):
        path = tmp_path / "steps.jsonl"
        ok = '{"headline": "a", "embedding": [1.0, 0.0]}'
        _write(path, [
            '{"task_id": "t1", "task_name": "x", "steps": [%s]}' % ok,
            '{"task_id": "t2", "task_name": "y", "steps": [%s, '
            '{"headline": "b", "embedding": [1.0, %s]}]}' % (ok, bad),
        ])
        with pytest.raises(CorpusFormatError, match="task 't2' step 1 has non-finite embedding"):
            corpus_io.load_step_database(path)

    def test_nested_embedding_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        rec = {"task_id": "t1", "task_name": "x",
               "steps": [{"headline": "a", "embedding": [[1.0, 0.0], [0.0, 1.0]]}]}
        _write(path, [json.dumps(rec)])
        with pytest.raises(CorpusFormatError, match=":1: .*step 0 embedding is not a flat vector"):
            corpus_io.load_step_database(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="contains no tasks"):
            corpus_io.load_step_database(path)

    @pytest.mark.parametrize(
        "field, value", [("task_id", 7), ("task_name", None), ("headline", ["a"])]
    )
    def test_non_string_text_rejected(self, tmp_path, field, value):
        rec = {"task_id": "t1", "task_name": "x", "steps": [{"headline": "a", "embedding": [1.0]}]}
        (rec["steps"][0] if field == "headline" else rec)[field] = value
        path = tmp_path / "steps.jsonl"
        _write(path, [json.dumps(rec)])
        with pytest.raises(CorpusFormatError, match=":1: malformed task record: .*strings"):
            corpus_io.load_step_database(path)

    def test_save_keeps_the_loaded_bytes(self, tmp_path):
        db = random_database(np.random.default_rng(5))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        corpus_io.save_step_database(db, first)
        back = corpus_io.load_step_database(first)
        np.testing.assert_array_equal(back.embeddings, db.embeddings)
        assert back.headlines == db.headlines and back.tasks == db.tasks
        corpus_io.save_step_database(back, second)
        assert first.read_bytes() == second.read_bytes()


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "f.pkgf"
        corpus_io.write_feature_file(path, data)
        back = corpus_io.read_feature_file(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.pkgf"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(CorpusFormatError, match="magic"):
            corpus_io.read_feature_file(path)

    def test_truncated_payload_names_file(self, tmp_path):
        path = tmp_path / "f.pkgf"
        corpus_io.write_feature_file(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CorpusFormatError, match="f.pkgf"):
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

    def test_segment_count_mismatch(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[corpus_io.Video("a", None, np.ones((3, 2)))])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["num_segments"] = 4
        manifest.write_text(json.dumps(rec) + "\n")
        with pytest.raises(CorpusFormatError, match="manifest says 4"):
            corpus_io.load_segment_corpus(manifest)

    def test_repeated_video_id_names_both_lines(self, tmp_path):
        corpus = corpus_io.SegmentCorpus(videos=[
            corpus_io.Video("a", None, np.ones((3, 2))), corpus_io.Video("b", None, np.ones((1, 2)))
        ])
        manifest = corpus_io.save_segment_corpus(corpus, tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines, lines[0]]) + "\n")
        with pytest.raises(CorpusFormatError, match=r":3: video_id 'a' repeats line 1"):
            corpus_io.load_segment_corpus(manifest)

    @pytest.mark.parametrize(
        "field, value", [("video_id", 5), ("feature_file", 5), ("task_name", ["a"])]
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


class TestCheckpoints:
    def test_metadata_must_be_an_object(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(6))
        ckpt.metadata = 5
        path = tmp_path / "model.pkgc"
        corpus_io.save_checkpoint(ckpt, path)
        with pytest.raises(CorpusFormatError, match="model.pkgc: .*metadata must be a JSON object"):
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
        with pytest.raises(CorpusFormatError, match="truncated"):
            corpus_io.load_checkpoint(path)

    @pytest.mark.parametrize("rows, cols", [(-1, 4), (0, 4), (2, 0)])
    def test_non_positive_shape_entry(self, tmp_path, rows, cols):
        # -1x4 with a 2x4 entry declares 4 weights, which 16 payload bytes satisfy
        path = tmp_path / "model.pkgc"
        header = {"shapes": [["a", rows, cols], ["b", 2, 4]], "metadata": {}}
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
        with pytest.raises(CorpusFormatError, match=f"'a' is {rows}x{cols}"):
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
            assert p1.read_bytes() == p2.read_bytes()

    def test_corpus(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            corpus = random_corpus(rng, dim=3, n_videos=int(rng.integers(1, 4)))
            d1, d2 = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
            m1 = corpus_io.save_segment_corpus(corpus, d1)
            m2 = corpus_io.save_segment_corpus(corpus_io.load_segment_corpus(m1), d2)
            assert m1.read_bytes() == m2.read_bytes()
            for v in corpus.videos:
                f1 = (d1 / "features" / f"{v.video_id}.pkgf").read_bytes()
                f2 = (d2 / "features" / f"{v.video_id}.pkgf").read_bytes()
                assert f1 == f2


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
