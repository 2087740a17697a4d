"""Dataset ingestion, image standardization, and the synthetic Zipf generator.

A Dataset holds all images as one (N, H, W, C) float32 array, no codec
dependency, with ids and CSR labels beside it. The tensor container is a
small binary format (magic "WLTENS1") holding all images of a dataset plus
an id index, so datasets round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .textpipe import Dictionary, build_dictionary, encode_targets, normalize_text, open_utf8, undecodable

TENSOR_FORMAT = "WLTENS1"
TENSOR_MAGIC = f"{TENSOR_FORMAT}\n".encode("ascii")
_TENSOR_HEADER = re.compile(r"^n=(\d+) h=(\d+) w=(\d+) c=(\d+) dtype=f32$")

STD_FLOOR = 1e-8  # below this the divisor is 1, so constant images stay finite


class MalformedHeaderError(ValueError):
    """Container or caption file does not start with the expected header."""


class MissingIdError(ValueError):
    """A caption references an image id that the container does not hold."""


class DimensionMismatchError(ValueError):
    """Container payload or index disagrees with its declared dimensions."""


@dataclass(eq=False)
class Dataset:
    """N examples as arrays: ids, images and CSR labels.

    Row i's labels are label_flat[label_offsets[i] : label_offsets[i + 1]],
    sorted unique non-negative dictionary indices, never empty.
    """

    ids: np.ndarray  # (N,) str
    images: np.ndarray  # (N, H, W, C) float32, standardized
    label_offsets: np.ndarray  # (N + 1,) int64, starts at 0
    label_flat: np.ndarray  # (label_offsets[-1],) int64

    def __post_init__(self):
        off, flat = self.label_offsets, self.label_flat
        if not (len(self.ids) == len(self.images) == len(off) - 1) or self.images.ndim != 4:
            raise ValueError("ids, images and label offsets disagree")
        if off[0] != 0 or off[-1] != flat.size or np.any(np.diff(off) < 1):
            raise ValueError("every example needs at least one label")
        rising = np.diff(flat) > 0
        rising[off[1:-1] - 1] = True  # a row's first label may be lower than the last row's
        if flat.size and (flat.min() < 0 or not rising.all()):
            raise ValueError("labels must be sorted unique non-negative indices")

    @classmethod
    def from_labels(cls, ids, images, labels) -> "Dataset":
        """Build from one label sequence (list or array) per example."""
        offsets = np.concatenate([[0], np.cumsum([len(row) for row in labels], dtype=np.int64)])
        flat = np.fromiter(itertools.chain.from_iterable(labels), dtype=np.int64, count=offsets[-1])
        return cls(np.asarray(ids, dtype=str), np.asarray(images, dtype=np.float32), offsets, flat)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "Dataset":
        """The examples at a slice or an index array, as a new Dataset."""
        rows = np.arange(len(self))[rows]
        if rows.ndim != 1:
            raise TypeError("index a Dataset with a slice or an array of rows")
        starts = self.label_offsets[rows]
        lengths = self.label_offsets[rows + 1] - starts
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        flat = self.label_flat[np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])]
        return Dataset(self.ids[rows], self.images[rows], offsets, flat)

    def labels_of(self, i: int) -> np.ndarray:
        return self.label_flat[self.label_offsets[i] : self.label_offsets[i + 1]]


@dataclass
class SynthConfig:
    """Synthetic Zipf image-caption generator settings.

    Class k is drawn with probability proportional to (k+1)**(-zipf_exponent).
    Each class owns a fixed random prototype image; an example's image is the
    mean of its chosen prototypes plus Gaussian pixel noise, standardized.
    """

    k: int = 20
    img_size: int = 16
    zipf_exponent: float = 1.0
    words_per_image: int = 1
    noise_sigma: float = 0.5
    seed: int = 7
    n_examples: int = 2000

    def __post_init__(self):
        if self.k < 1 or self.img_size < 1 or self.words_per_image < 1:
            raise ValueError("k, img_size and words_per_image must be positive")
        if self.words_per_image > self.k:
            raise ValueError("words_per_image exceeds k")
        if not (0 <= self.zipf_exponent < np.inf and 0 <= self.noise_sigma < np.inf):
            raise ValueError("zipf_exponent and noise_sigma must be finite and non-negative")
        if self.n_examples < 1:
            raise ValueError("n_examples must be positive")


def standardize_image(pixels: np.ndarray) -> np.ndarray:
    """Subtract the global per-image mean and divide by the global std.

    If the std is below STD_FLOOR the divisor is 1, so constant images map
    to all zeros instead of NaN.
    """
    x = np.asarray(pixels, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty image")
    std = x.std()
    if std < STD_FLOOR:
        std = 1.0
    return ((x - x.mean()) / std).astype(np.float32)


def class_word(i: int, k: int) -> str:
    """Letters-only synthetic word for class i; lexicographic order == class order."""
    width = 1
    while 26**width < k:
        width += 1
    letters = []
    for _ in range(width):
        letters.append(chr(ord("a") + i % 26))
        i //= 26
    return "w" + "".join(reversed(letters))


def zipf_probs(k: int, exponent: float) -> np.ndarray:
    weights = (np.arange(k, dtype=np.float64) + 1.0) ** (-exponent)
    return weights / weights.sum()


def generate_synthetic(cfg: SynthConfig) -> tuple[Dataset, Dictionary, np.ndarray]:
    """Generate the synthetic dataset; pure function of cfg.

    Returns (dataset, dictionary, prototypes). Prototype row i is the
    standardized prototype of dictionary word i, so labels index prototypes
    directly. The dictionary is built from the emitted captions with
    stop_count=0; ties in empirical counts resolve to ascending class order
    because the class words sort lexicographically by class.
    """
    rng = np.random.default_rng(cfg.seed)
    side, k, n = cfg.img_size, cfg.k, cfg.n_examples
    prototypes = rng.standard_normal((k, side, side, 1))
    probs = zipf_probs(k, cfg.zipf_exponent)
    first = rng.choice(k, size=n, p=probs)

    if cfg.words_per_image == 1:
        chosen = first[:, None]
    else:
        extra = cfg.words_per_image - 1
        chosen = np.empty((n, cfg.words_per_image), dtype=np.int64)
        chosen[:, 0] = first
        for i in range(n):
            others = rng.choice(k - 1, size=extra, replace=False)
            others += others >= first[i]
            chosen[i, 1:] = others

    words = [class_word(i, k) for i in range(k)]
    captions = [" ".join(words[c] for c in row) for row in chosen]
    docs = [normalize_text(caption) for caption in captions]
    dictionary = build_dictionary(docs, k=k, stop_count=0)

    mixed = prototypes[chosen].mean(axis=1)
    images = np.empty((n, side, side, 1), dtype=np.float32)
    chunk = 16384
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = mixed[start:stop]
        if cfg.noise_sigma > 0:
            block = block + cfg.noise_sigma * rng.standard_normal(block.shape)
        mean = block.mean(axis=(1, 2, 3), keepdims=True)
        std = block.std(axis=(1, 2, 3), keepdims=True)
        std = np.where(std < STD_FLOOR, 1.0, std)
        images[start:stop] = ((block - mean) / std).astype(np.float32)

    width = len(str(n - 1))
    dataset = Dataset.from_labels(
        [f"ex{i:0{width}d}" for i in range(n)], images, [encode_targets(doc, dictionary) for doc in docs]
    )

    # permute prototypes into dictionary order and standardize like images
    by_word = {w: j for j, w in enumerate(words)}
    proto_out = np.stack(
        [standardize_image(prototypes[by_word[w]]) for w in dictionary.words]
    )
    return dataset, dictionary, proto_out


def nearest_prototype_precision(dataset: Dataset, prototypes: np.ndarray) -> float:
    """Precision@1 of the nearest-prototype classifier; Bayes-proxy ceiling.

    Assigns each image to the prototype with the smallest Euclidean
    distance (ties to the lowest index) and scores a hit when that class
    is among the example's labels.
    """
    flat_p = prototypes.reshape(len(prototypes), -1).astype(np.float64)
    x = dataset.images.reshape(len(dataset), 1, -1)
    nearest = [  # 64 images at a time bounds the (64, K, H*W*C) differences
        np.argmin(np.square(flat_p - x[start : start + 64].astype(np.float64)).sum(axis=2), axis=1)
        for start in range(0, len(dataset), 64)
    ]
    # a row's labels are unique, so it matches its nearest class at most once
    hits = np.repeat(np.concatenate(nearest), np.diff(dataset.label_offsets)) == dataset.label_flat
    return int(hits.sum()) / len(dataset)


def write_tensor_container(path: str, images_by_id: dict[str, np.ndarray]) -> None:
    """Write all images to the WLTENS1 container, id-sorted, with an id index."""
    if not images_by_id:
        raise ValueError("empty container")
    ids = sorted(images_by_id)
    shapes = {images_by_id[i].shape for i in ids}
    if len(shapes) != 1 or len(next(iter(shapes))) != 3:
        raise DimensionMismatchError("dimension mismatch")
    h, w, c = next(iter(shapes))
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(f"n={len(ids)} h={h} w={w} c={c} dtype=f32\n".encode("ascii"))
        for i in ids:
            fh.write(np.ascontiguousarray(images_by_id[i], dtype="<f4").tobytes())
        for ordinal, i in enumerate(ids):
            fh.write(f"{i}\t{ordinal}\n".encode("utf-8"))


def read_tensor_container(path: str) -> tuple[np.ndarray, dict[str, int]]:
    """Read a WLTENS1 container; returns (images (n,h,w,c) float32, id -> ordinal)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(TENSOR_MAGIC))
        if magic != TENSOR_MAGIC:
            raise MalformedHeaderError(f"{path}: line 1: malformed header")
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        m = _TENSOR_HEADER.match(header)
        if m is None:
            raise MalformedHeaderError(f"{path}: line 2: malformed header")
        n, h, w, c = (int(g) for g in m.groups())
        images = np.empty((n, h, w, c), dtype="<f4")
        if fh.readinto(images) != images.nbytes:
            raise DimensionMismatchError(f"{path}: dimension mismatch: payload shorter than n*h*w*c")
        index: dict[str, int] = {}
        ordinals: set[int] = set()
        raw_index = fh.read()
        try:
            index_lines = raw_index.decode("utf-8").splitlines()
        except UnicodeDecodeError:
            escaped = raw_index.decode("utf-8", errors="surrogateescape")
            raise undecodable(path, escaped.splitlines(), "index line") from None
        for lineno, line in enumerate(index_lines, 1):
            if not line:
                continue
            try:
                ex_id, ordinal = line.split("\t")
                ordinal = int(ordinal)
            except ValueError:
                raise MalformedHeaderError(f"{path}: index line {lineno}: malformed index line") from None
            if ex_id in index or ordinal in ordinals or not 0 <= ordinal < n:
                raise DimensionMismatchError(
                    f"{path}: index line {lineno}: repeated or out-of-range entry {line!r}"
                )
            index[ex_id] = ordinal
            ordinals.add(ordinal)
    if len(index) != n:
        raise DimensionMismatchError(f"{path}: index holds {len(index)} entries, header says n={n}")
    return images, index


def write_captions_jsonl(path: str, rows) -> None:
    """Write caption JSON-lines, one {"id", "caption", "image"} row dict per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_captions_jsonl(path: str, image_ids=None) -> list[dict]:
    """Caption rows with string "id", "caption" and "image" fields, in file order.

    When image_ids (a container's id index) is given, a row whose image is
    not in it is an error naming the line.
    """
    rows = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                raise MalformedHeaderError(f"{path}: line {lineno}: malformed caption line") from None
            try:  # one chain, no per-field loop: this runs for every caption line
                strings = isinstance(row["id"], str) and isinstance(row["caption"], str)
                strings = strings and isinstance(row["image"], str)
            except (TypeError, KeyError):  # not a JSON object, or a field is missing
                raise MalformedHeaderError(f"{path}: line {lineno}: caption line missing fields") from None
            if not strings:
                raise MalformedHeaderError(f"{path}: line {lineno}: id, caption and image must be strings")
            if image_ids is not None and row["image"] not in image_ids:
                raise MissingIdError(f"{path}: line {lineno}: image id not in container: {row['image']}")
            rows.append(row)
    return rows


def load_dataset(captions_path: str, tensor_path: str, dictionary: Dictionary) -> tuple[Dataset, int]:
    """Join captions with the tensor container by id and encode labels.

    Examples whose caption has no in-dictionary words are dropped; the
    second return value is the drop count.
    """
    images, index = read_tensor_container(tensor_path)
    ids, ordinals, labels = [], [], []
    dropped = 0
    for row in read_captions_jsonl(captions_path, index):
        row_labels = encode_targets(normalize_text(row["caption"]), dictionary)
        if not row_labels:
            dropped += 1
            continue
        ids.append(row["id"])
        ordinals.append(index[row["image"]])
        labels.append(row_labels)
    rows = np.array(ordinals, dtype=np.int64)
    in_order = np.array_equal(rows, np.arange(len(images)))  # then the container's array is used, not copied
    return Dataset.from_labels(ids, images if in_order else images[rows], labels), dropped


def stable_fraction(key: str, salt: str = "") -> float:
    """Deterministic hash of a string id to [0, 1); stable across runs and platforms."""
    digest = hashlib.blake2b((salt + key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64
