"""Image standardization, the synthetic generator, the tensor container and caption files."""

import re

import numpy as np
import pytest
from scipy import stats

from weaklearn.data import (
    Dataset,
    DimensionMismatchError,
    MalformedHeaderError,
    MissingIdError,
    SynthConfig,
    class_word,
    generate_synthetic,
    load_dataset,
    nearest_prototype_precision,
    read_captions_jsonl,
    read_tensor_container,
    stable_fraction,
    standardize_image,
    write_captions_jsonl,
    write_tensor_container,
    zipf_probs,
)
from weaklearn.textpipe import Dictionary


def test_standardize_small_square():
    img = np.array([0.0, 0.0, 2.0, 2.0]).reshape(2, 2, 1)
    out = standardize_image(img)
    assert out.shape == (2, 2, 1)
    np.testing.assert_array_equal(out.ravel(), np.float32([-1, -1, 1, 1]))


def test_constant_image_standardizes_to_zeros():
    out = standardize_image(np.full((4, 4, 3), 4.2))
    assert out.shape == (4, 4, 3)
    assert not out.any()


def test_preprocess_output_statistics():
    rng = np.random.default_rng(0)
    out = standardize_image(rng.uniform(0, 255, size=(4, 4, 3)))
    assert out.dtype == np.float32
    flat = out.astype(np.float64).ravel()
    assert abs(flat.mean()) < 1e-6
    assert abs(flat.std() - 1.0) < 1e-6


def test_preprocess_rejects_empty_images():
    with pytest.raises(ValueError, match="empty image"):
        standardize_image(np.zeros((0, 4, 3)))
    with pytest.raises(ValueError, match="empty image"):
        standardize_image(np.zeros((0,)))


def test_class_words_sort_like_class_indices():
    for k in (5, 26, 30, 800):
        words = [class_word(i, k) for i in range(k)]
        assert words == sorted(words)
        assert len(set(words)) == k
        assert len({len(w) for w in words}) == 1
        assert all(w[0] == "w" and w[1:].isalpha() and w.islower() for w in words)


def test_zipf_probs_shape():
    p = zipf_probs(10, 1.0)
    assert abs(p.sum() - 1.0) < 1e-12
    assert abs(p[0] / p[1] - 2.0) < 1e-12  # (1/1)^-1 vs (1/2)^-1
    assert np.all(np.diff(p) < 0)
    assert np.allclose(zipf_probs(7, 0.0), 1 / 7)


def test_generator_is_deterministic():
    cfg = SynthConfig(k=8, img_size=4, n_examples=64, seed=123)
    ex_a, dict_a, proto_a = generate_synthetic(cfg)
    ex_b, dict_b, proto_b = generate_synthetic(cfg)
    assert dict_a.words == dict_b.words
    np.testing.assert_array_equal(proto_a, proto_b)
    assert ex_a.ids.tolist() == ex_b.ids.tolist()
    assert ex_a.images.tobytes() == ex_b.images.tobytes()
    np.testing.assert_array_equal(ex_a.label_offsets, ex_b.label_offsets)
    np.testing.assert_array_equal(ex_a.label_flat, ex_b.label_flat)


def test_noiseless_examples_equal_their_prototypes():
    cfg = SynthConfig(k=6, img_size=5, noise_sigma=0.0, n_examples=120, seed=9)
    examples, dictionary, protos = generate_synthetic(cfg)
    assert nearest_prototype_precision(examples, protos) == 1.0
    for image, label in zip(examples.images[:20], examples.label_flat[examples.label_offsets[:-1]]):
        np.testing.assert_allclose(image, protos[label], atol=1e-5)


def test_labels_and_dictionary_agree():
    cfg = SynthConfig(k=12, img_size=3, words_per_image=3, n_examples=200, seed=4)
    examples, dictionary, protos = generate_synthetic(cfg)
    assert dictionary.k == 12
    assert protos.shape == (12, 3, 3, 1)
    for i in range(len(examples)):
        labels = examples.labels_of(i)
        assert len(labels) == 3  # chosen classes are distinct
        assert np.array_equal(labels, np.unique(labels))
        assert labels.min() >= 0 and labels.max() < 12


def test_flat_exponent_gives_uniform_classes():
    cfg = SynthConfig(k=10, img_size=2, zipf_exponent=0.0, n_examples=100_000, seed=2)
    examples, _, _ = generate_synthetic(cfg)
    counts = np.bincount(examples.label_flat[examples.label_offsets[:-1]], minlength=10)
    assert stats.chisquare(counts).pvalue > 0.01


def test_rank_frequency_slope_tracks_exponent():
    cfg = SynthConfig(k=100, img_size=2, zipf_exponent=1.0, n_examples=100_000, seed=6)
    examples, _, _ = generate_synthetic(cfg)
    counts = np.bincount(examples.label_flat[examples.label_offsets[:-1]], minlength=100)
    counts = np.sort(counts)[::-1]
    counts = counts[counts > 0]
    slope = np.polyfit(np.log(np.arange(1, len(counts) + 1)), np.log(counts), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_synth_config_validation():
    with pytest.raises(ValueError, match="words_per_image exceeds k"):
        SynthConfig(k=3, words_per_image=4)
    with pytest.raises(ValueError):
        SynthConfig(k=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_sigma=-0.1)


@pytest.mark.parametrize("key", ["zipf_exponent", "noise_sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_synth_config_refuses_a_non_finite_setting(key, value):
    with pytest.raises(ValueError, match="must be finite and non-negative"):
        SynthConfig(**{key: value})


def test_container_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    images = {f"img{i}": rng.standard_normal((4, 3, 2)).astype(np.float32) for i in range(5)}
    path = tmp_path / "tensors.bin"
    write_tensor_container(str(path), images)
    loaded, index = read_tensor_container(str(path))
    assert loaded.shape == (5, 4, 3, 2)
    assert sorted(index) == sorted(images)
    for key, img in images.items():
        assert loaded[index[key]].tobytes() == img.tobytes()


def test_container_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTTENS1\nn=1 h=1 w=1 c=1 dtype=f32\n" + b"\x00" * 4)
    with pytest.raises(MalformedHeaderError, match=f"^{re.escape(str(path))}: line 1: malformed header"):
        read_tensor_container(str(path))
    path.write_bytes(b"WLTENS1\nn=1 h=1 w=1 dtype=f32\n" + b"\x00" * 4)
    with pytest.raises(MalformedHeaderError, match=f"^{re.escape(str(path))}: line 2: malformed header"):
        read_tensor_container(str(path))


def test_container_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"WLTENS1\nn=2 h=2 w=2 c=1 dtype=f32\n" + b"\x00" * 8)
    with pytest.raises(DimensionMismatchError):
        read_tensor_container(str(path))


def test_container_rejects_bad_index(tmp_path):
    img = {"a": np.zeros((1, 1, 1), dtype=np.float32)}
    path = tmp_path / "tensors.bin"
    write_tensor_container(str(path), img)
    good = path.read_bytes()
    where = f"^{re.escape(str(path))}: index line 1: "
    path.write_bytes(good.replace(b"a\t0\n", b"a\t1\n"))
    with pytest.raises(DimensionMismatchError, match=where + "repeated or out-of-range"):
        read_tensor_container(str(path))
    path.write_bytes(good.replace(b"a\t0\n", b"a 0\n"))
    with pytest.raises(MalformedHeaderError, match=where + "malformed index line"):
        read_tensor_container(str(path))
    path.write_bytes(good.replace(b"a\t0\n", b"a\t0\nb\t0\n"))
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(path))}: index line 2: repeated"):
        read_tensor_container(str(path))
    path.write_bytes(good.replace(b"a\t0\n", b""))
    with pytest.raises(DimensionMismatchError, match="index holds 0 entries, header says n=1"):
        read_tensor_container(str(path))


def test_container_index_byte_that_is_not_utf8_names_its_index_line(tmp_path):
    path = tmp_path / "tensors.bin"
    write_tensor_container(str(path), {key: np.zeros((1, 1, 1), dtype=np.float32) for key in "ab"})
    path.write_bytes(path.read_bytes().replace(b"b\t1\n", b"b\xff\t1\n"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: index line 2: byte 0xff is not UTF-8$"):
        read_tensor_container(str(path))


def _write_tiny_dataset(tmp_path, captions):
    rng = np.random.default_rng(0)
    rows = []
    images = {}
    for i, caption in enumerate(captions):
        ex_id = f"ex{i}"
        rows.append({"id": ex_id, "caption": caption, "image": ex_id})
        images[ex_id] = rng.standard_normal((2, 2, 1)).astype(np.float32)
    cap_path, tensor_path = tmp_path / "captions.jsonl", tmp_path / "tensors.bin"
    write_captions_jsonl(str(cap_path), rows)
    write_tensor_container(str(tensor_path), images)
    return str(cap_path), str(tensor_path), images


def test_load_dataset_drops_examples_without_labels(tmp_path):
    d = Dictionary(words=["red", "sky"], counts=np.array([2, 1]), stop_count=0)
    cap, ten, _ = _write_tiny_dataset(tmp_path, ["red sky", "red", "nothing known"])
    dataset, dropped = load_dataset(cap, ten, d)
    assert dataset.ids.tolist() == ["ex0", "ex1"]
    assert dataset.labels_of(0).tolist() == [0, 1]
    assert dropped == 1


def test_load_dataset_gathers_images_by_container_id(tmp_path):
    d = Dictionary(words=["red", "sky"], counts=np.array([2, 1]), stop_count=0)
    cap, ten, images = _write_tiny_dataset(tmp_path, ["red sky", "red", "sky"])
    write_captions_jsonl(cap, read_captions_jsonl(cap)[::-1])
    dataset, _ = load_dataset(cap, ten, d)
    assert dataset.ids.tolist() == ["ex2", "ex1", "ex0"]
    assert dataset.images.tobytes() == np.stack([images[i] for i in dataset.ids]).tobytes()
    assert dataset.label_offsets.tolist() == [0, 1, 2, 4]
    assert dataset.label_flat.tolist() == [1, 0, 0, 1]


def test_dataset_rows_and_validation():
    dataset = Dataset.from_labels(
        ["a", "b", "c"], np.arange(12, dtype=np.float32).reshape(3, 2, 2, 1), [[0, 2], [1], [0, 1, 3]]
    )
    assert len(dataset) == 3
    assert dataset.labels_of(2).tolist() == [0, 1, 3]
    for rows in (slice(1, None), np.array([2, 0]), np.array([True, False, True]), slice(None, None, -1)):
        part = dataset[rows]
        picked = np.arange(3)[rows]
        assert part.ids.tolist() == dataset.ids[picked].tolist()
        assert part.images.tobytes() == dataset.images[picked].tobytes()
        assert [part.labels_of(i).tolist() for i in range(len(part))] == [
            dataset.labels_of(i).tolist() for i in picked
        ]
    assert len(dataset[3:]) == 0
    with pytest.raises(TypeError, match="slice or an array"):
        dataset[0]
    image = np.zeros((1, 1, 1, 1), dtype=np.float32)
    for labels in ([[]], [[1, 1]], [[2, 1]], [[-1]]):
        with pytest.raises(ValueError, match="label"):
            Dataset.from_labels(["a"], image, labels)
    with pytest.raises(ValueError, match="disagree"):
        Dataset.from_labels(["a", "b"], image, [[0]])


def reference_nearest_prototype_precision(dataset, prototypes):
    """One example at a time, as the metric was first written."""
    flat_p = prototypes.reshape(len(prototypes), -1).astype(np.float64)
    hits = 0
    for i in range(len(dataset)):
        x = dataset.images[i].reshape(-1).astype(np.float64)
        d2 = np.square(flat_p - x).sum(axis=1)
        hits += int(np.argmin(d2)) in dataset.labels_of(i).tolist()
    return hits / len(dataset)


def test_nearest_prototype_precision_equals_per_example_loop():
    cfg = SynthConfig(k=9, img_size=5, words_per_image=2, noise_sigma=2.0, n_examples=300, seed=12)
    dataset, _, protos = generate_synthetic(cfg)
    tied = protos.copy()
    tied[4] = tied[3]  # equal distances go to the lower index
    for prototypes in (protos, tied):
        expected = reference_nearest_prototype_precision(dataset, prototypes)
        assert 0.0 < expected < 1.0
        assert nearest_prototype_precision(dataset, prototypes) == expected  # 300 rows: 5 chunks of 64


def test_load_dataset_requires_known_ids(tmp_path):
    d = Dictionary(words=["red"], counts=np.array([1]), stop_count=0)
    cap, ten, _ = _write_tiny_dataset(tmp_path, ["red"])
    rows = read_captions_jsonl(cap)
    rows[0]["image"] = "ghost"
    write_captions_jsonl(cap, rows)
    with pytest.raises(MissingIdError, match="id not in container: ghost"):
        load_dataset(cap, ten, d)


def test_generated_dataset_round_trips_through_files(tmp_path):
    cfg = SynthConfig(k=6, img_size=4, n_examples=40, seed=77)
    examples, dictionary, _ = generate_synthetic(cfg)
    ids = examples.ids.tolist()
    rows = [
        {
            "id": ex_id,
            "caption": " ".join(dictionary.words[int(l)] for l in examples.labels_of(i)),
            "image": ex_id,
        }
        for i, ex_id in enumerate(ids)
    ]
    cap, ten = tmp_path / "captions.jsonl", tmp_path / "tensors.bin"
    write_captions_jsonl(str(cap), rows)
    write_tensor_container(str(ten), dict(zip(ids, examples.images)))

    loaded, dropped = load_dataset(str(cap), str(ten), dictionary)
    assert dropped == 0
    assert loaded.ids.tolist() == ids
    assert loaded.images.tobytes() == examples.images.tobytes()
    np.testing.assert_array_equal(loaded.label_offsets, examples.label_offsets)
    np.testing.assert_array_equal(loaded.label_flat, examples.label_flat)


def test_captions_reject_malformed_lines(tmp_path):
    path = tmp_path / "captions.jsonl"
    path.write_text('{"id": "a", "caption": "x"}\n', encoding="utf-8")
    with pytest.raises(MalformedHeaderError, match="missing fields"):
        read_captions_jsonl(str(path))
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(MalformedHeaderError, match="malformed caption line"):
        read_captions_jsonl(str(path))
    path.write_text('{"id": "a", "caption": "x", "image": "a"}\n\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(MalformedHeaderError, match=f"^{re.escape(str(path))}: line 3: "):
        read_captions_jsonl(str(path))


def test_stable_fraction_properties():
    values = np.array([stable_fraction(f"id{i}") for i in range(10_000)])
    assert np.all((values >= 0) & (values < 1))
    assert abs(values.mean() - 0.5) < 0.02
    assert stable_fraction("id7") == stable_fraction("id7")
    assert stable_fraction("id7", salt="a") != stable_fraction("id7", salt="b")
