"""Synthetic scenes and segmentation metrics.

Scenes are rasterized back-to-front: stuff bands fill the background, thing
shapes (rectangles, disks, triangles) occlude whatever came before.  Class
template embeddings are seeded random unit vectors derived from the class
index, so a scene is a fully self-contained evaluation fixture.

Metrics follow the standard panoptic-quality definitions:
PQ = sum(IoU over TP) / (|TP| + |FP|/2 + |FN|/2), SQ = sum(IoU)/|TP|,
RQ = |TP| / (|TP| + |FP|/2 + |FN|/2), matched at same class and IoU > 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import MaskLabel
from .kernels import bilinear_upsample
from .tensor import EovtFormatError, Rng, read_eovt, read_text, write_eovt

VOID = 0  # segment id reserved for unlabeled pixels
_INT32_MAX = int(np.iinfo(np.int32).max)  # the segment map is int32, so no id lies beyond
_GROUP_BYTES = 2 << 20  # upsampled bytes per assembly call: 128 float32 masks of a 64x64 image


@dataclass
class SegmentRecord:
    segment_id: int
    class_id: int
    is_thing: bool


@dataclass
class PanopticAnnotation:
    segment_map: np.ndarray  # (H, W) int32, 0 = void
    segments: list[SegmentRecord]

    def __post_init__(self):
        ids_in_map = set(int(i) for i in np.unique(self.segment_map)) - {VOID}
        ids_in_records = [s.segment_id for s in self.segments]
        if len(ids_in_records) != len(set(ids_in_records)):
            raise ValueError("PanopticAnnotation: duplicate segment ids in records")
        missing = ids_in_map - set(ids_in_records)
        if missing:
            raise ValueError(f"PanopticAnnotation: map ids {sorted(missing)} lack records")

    def semantic_map(self) -> np.ndarray:
        """Per-pixel class ids; void pixels become -1.  Ids are looked up among
        the sorted record ids, so memory does not grow with the largest id."""
        records = sorted(self.segments, key=lambda s: s.segment_id)
        ids = np.array([s.segment_id for s in records], dtype=np.int64)
        classes = np.array([s.class_id for s in records], dtype=np.int32)
        out = np.full(self.segment_map.shape, -1, dtype=np.int32)
        nonvoid = self.segment_map != VOID
        out[nonvoid] = classes[np.searchsorted(ids, self.segment_map[nonvoid])]
        return out

    def save(self, map_path: str | Path, manifest_path: str | Path) -> None:
        """Segment-id map as an integral-valued f32 tensor plus a text manifest.
        float32 holds every integer only up to 2**24, so a larger id raises
        ``ValueError`` before anything is written."""
        beyond = self.segment_map[self.segment_map > 1 << 24]
        if beyond.size:
            raise ValueError(f"PanopticAnnotation.save: segment id {int(beyond[0])} is beyond 2**24, "
                             "which the float32 map cannot hold exactly")
        write_eovt(map_path, self.segment_map.astype(np.float32))
        lines = [
            f"{s.segment_id} {s.class_id} {'thing' if s.is_thing else 'stuff'}"
            for s in self.segments
        ]
        Path(manifest_path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, map_path: str | Path, manifest_path: str | Path) -> "PanopticAnnotation":
        seg = read_eovt(map_path)
        if not np.all(np.isfinite(seg)):
            raise EovtFormatError(f"{map_path}: segment map holds non-finite values")
        rounded = np.rint(seg)
        if np.max(np.abs(seg - rounded)) > 0:
            raise EovtFormatError(f"{map_path}: segment map holds non-integral values")
        if np.min(rounded) < VOID:
            raise EovtFormatError(f"{map_path}: segment map holds negative ids")
        top = float(np.max(rounded))  # as float32, the int32 maximum would round up to 2**31
        if top > _INT32_MAX:
            raise EovtFormatError(f"{map_path}: segment map holds id {top:.0f}, beyond int32")
        records = []
        for line in read_text(manifest_path).splitlines():
            if not line.strip():
                continue
            try:
                sid, cid, kind = line.split()
                record = SegmentRecord(int(sid), int(cid), {"thing": True, "stuff": False}[kind])
            except (ValueError, KeyError):
                raise EovtFormatError(
                    f"{manifest_path}: malformed line {line!r} (need 'segment_id class_id thing|stuff')"
                ) from None
            if record.segment_id <= VOID:
                raise EovtFormatError(
                    f"{manifest_path}: line {line!r} has segment id {record.segment_id}; "
                    f"ids start at {VOID + 1} ({VOID} is void)"
                )
            if record.segment_id > _INT32_MAX:
                raise EovtFormatError(
                    f"{manifest_path}: line {line!r} has segment id {record.segment_id}, beyond int32"
                )
            records.append(record)
        try:
            return cls(segment_map=rounded.astype(np.int32), segments=records)
        except ValueError as exc:  # duplicate ids, or map ids without a record
            raise EovtFormatError(f"{manifest_path}: {exc}; the segment map is {map_path}") from None


# smallest canvas side; shapes are placed by retried random draws that need room
MIN_EXTENT = 16


@dataclass
class SceneSpec:
    height: int = 64
    width: int = 64
    stuff_classes: tuple[str, ...] = ("sky", "grass")
    thing_classes: tuple[str, ...] = ("box", "ball", "wedge")
    n_shapes: int = 3
    n_templates: int = 3
    embed_dim: int = 256
    seed: int = 0

    def __post_init__(self):
        for name, low in (("height", MIN_EXTENT), ("width", MIN_EXTENT), ("n_shapes", 0),
                          ("n_templates", 1), ("embed_dim", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"SceneSpec: {name} must be >= {low}, got {getattr(self, name)}")
        for name in ("stuff_classes", "thing_classes"):  # vocab.txt: UTF-8, split on whitespace
            for c in getattr(self, name):
                if c.split() != [c]:
                    raise ValueError(f"SceneSpec: {name} must be non-empty names without "
                                     f"whitespace, got {c!r}")
                if c.encode("utf-8", "ignore").decode() != c:
                    raise ValueError(f"SceneSpec: {name} must be names UTF-8 can encode, got {c!r}")
        names = self.class_names  # vocab.txt and reports tell classes apart by name
        for i, c in enumerate(names):
            if c in names[:i]:
                field = "stuff_classes" if i < len(self.stuff_classes) else "thing_classes"
                raise ValueError(f"SceneSpec: {field} repeats class name {c!r}; class names "
                                 f"must be unique across stuff_classes and thing_classes")
        if not self.stuff_classes:
            raise ValueError("SceneSpec: at least one stuff class required")
        if self.n_shapes > 0 and not self.thing_classes:
            raise ValueError("SceneSpec: shapes requested but no thing classes given")

    @property
    def class_names(self) -> list[str]:
        return list(self.stuff_classes) + list(self.thing_classes)

    @property
    def n_classes(self) -> int:
        return len(self.stuff_classes) + len(self.thing_classes)

    def is_thing(self) -> np.ndarray:
        return np.array(
            [False] * len(self.stuff_classes) + [True] * len(self.thing_classes)
        )

    def seen_mask(self) -> np.ndarray:
        # even class indices count as training vocabulary, odd as novel
        return np.arange(self.n_classes) % 2 == 0


def class_color(class_id: int) -> np.ndarray:
    """Deterministic base color per class, away from the [0,1] extremes."""
    rng = Rng(0xC0109 + class_id)
    return rng.uniform((3,), 0.15, 0.85)


def class_templates(class_id: int, n_templates: int, dim: int) -> np.ndarray:
    """Seeded random unit vectors standing in for per-template text embeddings."""
    out = np.empty((n_templates, dim), dtype=np.float32)
    for t in range(n_templates):
        out[t] = Rng(0x7E4415 + 1_000_003 * class_id + t).unit_vector(dim)
    return out


def _raster_shape(kind: str, rng: Rng, h: int, w: int) -> np.ndarray:
    """Boolean mask of one shape, retried until it lands fully inside the canvas."""
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(100):
        if kind == "rectangle":
            rh = int(rng.integers(h // 8 + 2, max(h // 2, h // 8 + 3)))
            rw = int(rng.integers(w // 8 + 2, max(w // 2, w // 8 + 3)))
            y0 = int(rng.integers(0, h - rh))
            x0 = int(rng.integers(0, w - rw))
            mask = (yy >= y0) & (yy < y0 + rh) & (xx >= x0) & (xx < x0 + rw)
        elif kind == "disk":
            r = int(rng.integers(min(h, w) // 8 + 1, max(min(h, w) // 4, min(h, w) // 8 + 2)))
            cy = int(rng.integers(r, h - r))
            cx = int(rng.integers(r, w - r))
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        elif kind == "triangle":
            pts = np.stack(
                [rng.integers(2, h - 2, size=3), rng.integers(2, w - 2, size=3)], axis=1
            ).astype(np.float64)
            a, b, c = pts

            def side(p, q):
                return (q[0] - p[0]) * (xx - p[1]) - (q[1] - p[1]) * (yy - p[0])

            s1, s2, s3 = side(a, b), side(b, c), side(c, a)
            mask = ((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0))
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
        if mask.sum() >= 9:  # degenerate draws (thin triangles) are retried
            return mask
    raise ValueError(f"could not place a {kind} inside {h}x{w} after 100 tries")


SHAPE_KINDS = ("rectangle", "disk", "triangle")


def generate_scene(
    spec: SceneSpec, rng: Rng | None = None
) -> tuple[np.ndarray, PanopticAnnotation, np.ndarray]:
    """Render (image 3xHxW, ground truth, template embeddings MxN_classxD)."""
    rng = rng if rng is not None else Rng(spec.seed)
    h, w = spec.height, spec.width
    seg_map = np.zeros((h, w), dtype=np.int32)
    records: list[SegmentRecord] = []
    image = np.zeros((3, h, w), dtype=np.float32)

    # background: one horizontal band per stuff class, top to bottom
    n_stuff = len(spec.stuff_classes)
    edges = np.linspace(0, h, n_stuff + 1).astype(int)
    next_id = 1
    for band, _name in enumerate(spec.stuff_classes):
        y0, y1 = edges[band], edges[band + 1]
        if y1 <= y0:
            continue
        seg_map[y0:y1, :] = next_id
        image[:, y0:y1, :] = class_color(band)[:, None, None]
        records.append(SegmentRecord(segment_id=next_id, class_id=band, is_thing=False))
        next_id += 1

    # shapes, back to front: later draws occlude earlier ones
    for _ in range(spec.n_shapes):
        kind = SHAPE_KINDS[int(rng.integers(0, len(SHAPE_KINDS)))]
        class_local = int(rng.integers(0, len(spec.thing_classes)))
        class_id = n_stuff + class_local
        mask = _raster_shape(kind, rng, h, w)
        seg_map[mask] = next_id
        image[:, mask] = class_color(class_id)[:, None]
        records.append(SegmentRecord(segment_id=next_id, class_id=class_id, is_thing=True))
        next_id += 1

    # drop records fully occluded by later shapes
    visible = set(int(i) for i in np.unique(seg_map))
    records = [r for r in records if r.segment_id in visible]

    image += rng.normal((3, h, w), std=0.02)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)

    templates = np.stack(
        [class_templates(c, spec.n_templates, spec.embed_dim) for c in range(spec.n_classes)], axis=1
    )

    if not records:
        raise ValueError("generate_scene: produced a scene with no segments")
    return image, PanopticAnnotation(segment_map=seg_map, segments=records), templates


# ---------------------------------------------------------------------------
# panoptic assembly of model output


def assemble_panoptic(
    probs: np.ndarray, labels: list[MaskLabel], class_is_thing: np.ndarray
) -> PanopticAnnotation:
    """Argmax of confidence*probability per pixel, then segment-id assignment.

    ``probs`` are the (N, H/4, W/4) mask probabilities; each label indexes one mask.

    Stuff winners of the same class are merged into a single segment; each
    thing winner keeps its own segment.  With no surviving labels the whole
    map is void.

    The kept masks are upsampled whole, in groups of at most ``_GROUP_BYTES``
    of output per ``bilinear_upsample`` call, so memory is bounded by the
    group rather than by the number of kept masks; the upsample never mixes
    channels, so every pixel equals the full-size upsample's.  The argmax is
    a running max over the kept masks in label order, from -inf, replaced
    only by a strictly greater score: every score is >= 0, so label 0 takes
    every pixel first, and the first index wins ties as under ``np.argmax``.
    """
    h, w = 4 * probs.shape[1], 4 * probs.shape[2]
    if not labels:
        return PanopticAnnotation(segment_map=np.zeros((h, w), dtype=np.int32), segments=[])
    kept = [lab.mask_index for lab in labels]  # read per group, never copied whole
    conf = np.array([lab.confidence for lab in labels], dtype=probs.dtype)
    group = max(1, _GROUP_BYTES // (probs.itemsize * h * w))  # full-size masks per call
    winner = np.zeros((h, w), dtype=np.intp)
    best, score = np.full((h, w), -np.inf, dtype=probs.dtype), np.empty((h, w), dtype=probs.dtype)
    better = np.empty((h, w), dtype=bool)
    for g0 in range(0, len(labels), group):
        up = bilinear_upsample(probs[kept[g0:g0 + group]], 4)
        for i in range(g0, g0 + len(up)):
            np.multiply(conf[i], up[i - g0], out=score)
            np.greater(score, best, out=better)
            np.copyto(best, score, where=better)
            np.copyto(winner, i, where=better)
        del up  # freed before the next group is made

    present = np.bincount(winner.ravel(), minlength=len(labels)) > 0
    lut = np.zeros(len(labels), dtype=np.int32)
    records: list[SegmentRecord] = []
    stuff_ids: dict[int, int] = {}
    next_id = 1
    for i, lab in enumerate(labels):
        if not present[i]:
            continue
        thing = bool(class_is_thing[lab.class_id])
        if thing:
            seg_id = next_id
            next_id += 1
            records.append(SegmentRecord(segment_id=seg_id, class_id=lab.class_id, is_thing=True))
        else:
            if lab.class_id not in stuff_ids:
                stuff_ids[lab.class_id] = next_id
                records.append(
                    SegmentRecord(segment_id=next_id, class_id=lab.class_id, is_thing=False)
                )
                next_id += 1
            seg_id = stuff_ids[lab.class_id]
        lut[i] = seg_id
    return PanopticAnnotation(segment_map=lut[winner], segments=records)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class SegmentMatch:
    pred_id: int
    gt_id: int
    iou: float


def _areas_and_intersections(pred: PanopticAnnotation, gt: PanopticAnnotation):
    """Joint pixel counts keyed by (pred_id, gt_id), plus per-id areas."""
    if pred.segment_map.shape != gt.segment_map.shape:
        raise ValueError(
            f"match_segments: map extents differ, {pred.segment_map.shape} vs "
            f"{gt.segment_map.shape}"
        )
    pm = pred.segment_map.reshape(-1).astype(np.int64)
    gm = gt.segment_map.reshape(-1).astype(np.int64)
    scale = int(gm.max()) + 1
    combined = pm * scale + gm
    ids, counts = np.unique(combined, return_counts=True)
    inter = {(int(i) // scale, int(i) % scale): int(c) for i, c in zip(ids, counts)}
    pred_area = {int(i): int(c) for i, c in zip(*np.unique(pm, return_counts=True))}
    gt_area = {int(i): int(c) for i, c in zip(*np.unique(gm, return_counts=True))}
    return inter, pred_area, gt_area


def match_segments(pred: PanopticAnnotation, gt: PanopticAnnotation) -> list[SegmentMatch]:
    """Same-class pairs with IoU > 0.5; such a matching is unique per segment.

    Ground-truth void pixels are excluded: a prediction's overlap with void is
    subtracted from the union.
    """
    return _matches(pred, gt, *_areas_and_intersections(pred, gt))


def _matches(pred, gt, inter, pred_area, gt_area) -> list[SegmentMatch]:
    pred_class = {s.segment_id: s.class_id for s in pred.segments}
    gt_class = {s.segment_id: s.class_id for s in gt.segments}
    matches = []
    for (pid, gid), ov in sorted(inter.items()):
        if pid == VOID or gid == VOID:
            continue
        if pred_class.get(pid) != gt_class.get(gid):
            continue
        void_overlap = inter.get((pid, VOID), 0)
        union = pred_area[pid] + gt_area[gid] - ov - void_overlap
        iou = ov / union if union > 0 else 0.0
        if iou > 0.5:
            matches.append(SegmentMatch(pred_id=pid, gt_id=gid, iou=iou))
    return matches


@dataclass
class ClassPq:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0

    @property
    def denom(self) -> float:
        return self.tp + 0.5 * self.fp + 0.5 * self.fn

    @property
    def pq(self) -> float:
        return self.iou_sum / self.denom if self.denom > 0 else 0.0

    @property
    def sq(self) -> float:
        return self.iou_sum / self.tp if self.tp > 0 else 0.0

    @property
    def rq(self) -> float:
        return self.tp / self.denom if self.denom > 0 else 0.0


@dataclass
class PqResult:
    per_class: dict[int, ClassPq] = field(default_factory=dict)

    @property
    def pq(self) -> float:
        return self._mean("pq")

    @property
    def sq(self) -> float:
        return self._mean("sq")

    @property
    def rq(self) -> float:
        return self._mean("rq")

    def _mean(self, attr: str) -> float:
        vals = [getattr(c, attr) for c in self.per_class.values() if c.denom > 0]
        return float(np.mean(vals)) if vals else 0.0


def pq_metrics(pred: PanopticAnnotation, gt: PanopticAnnotation) -> PqResult:
    """Per-class and mean PQ/SQ/RQ; PQ = SQ*RQ holds per class whenever TP > 0."""
    inter, pred_area, gt_area = _areas_and_intersections(pred, gt)
    matches = _matches(pred, gt, inter, pred_area, gt_area)
    matched_pred = {m.pred_id for m in matches}
    matched_gt = {m.gt_id for m in matches}
    result = PqResult()

    def cls(c: int) -> ClassPq:
        return result.per_class.setdefault(c, ClassPq())

    gt_class = {s.segment_id: s.class_id for s in gt.segments}
    for m in matches:
        c = cls(gt_class[m.gt_id])
        c.tp += 1
        c.iou_sum += m.iou
    for s in gt.segments:
        if s.segment_id not in matched_gt:
            cls(s.class_id).fn += 1
    for s in pred.segments:
        if s.segment_id in matched_pred:
            continue
        # predictions mostly covering ground-truth void do not count as FP
        area = pred_area.get(s.segment_id, 0)
        void_overlap = inter.get((s.segment_id, VOID), 0)
        if area > 0 and void_overlap / area > 0.5:
            continue
        cls(s.class_id).fp += 1
    return result


def miou(pred_sem: np.ndarray, gt_sem: np.ndarray) -> float:
    """Mean IoU over classes present in the ground truth; gt void (-1) excluded."""
    if pred_sem.shape != gt_sem.shape:
        raise ValueError(f"miou: map extents differ, {pred_sem.shape} vs {gt_sem.shape}")
    valid = gt_sem >= 0
    classes = np.unique(gt_sem[valid])
    if classes.size == 0:
        return 0.0
    ious = []
    for c in classes:
        p = (pred_sem == c) & valid
        g = gt_sem == c
        union = np.logical_or(p, g).sum()
        inter = np.logical_and(p, g).sum()
        ious.append(inter / union if union > 0 else 0.0)
    return float(np.mean(ious))
