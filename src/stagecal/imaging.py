"""Linear image I/O, transfer-function handling, and chart patch sampling.

Everything here works in scene-linear RGB. Encoded (display-referred) values
exist only on the way out (encode_transfer / write_png16). Float images
travel as PFM; charts as CSV.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

CHART_ROWS = 4
CHART_COLS = 6
CHART_PATCHES = CHART_ROWS * CHART_COLS

# First patch of the neutral (bottom) row in row-major chart order.
DEFAULT_WHITE_INDEX = 18

DEFAULT_INSET = 0.25
TRIM_FRACTION = 0.1


class ChartExtractionError(ValueError):
    """Raised when a chart grid cannot be sampled from an image."""


@dataclass(frozen=True)
class LinearImage:
    """Scene-linear RGB image, row-major, components finite and >= 0."""

    data: np.ndarray  # (height, width, 3) float64

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError(f"expected (h, w, 3) image data, got shape {data.shape}")
        if not np.isfinite(data).all():
            bad = np.argwhere(~np.isfinite(data).all(axis=2))[0]
            raise ValueError(f"non-finite pixel at (x={bad[1]}, y={bad[0]})")
        if (data < 0).any():
            bad = np.argwhere((data < 0).any(axis=2))[0]
            raise ValueError(f"negative pixel at (x={bad[1]}, y={bad[0]})")
        object.__setattr__(self, "data", data)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ChartSamples:
    """24 linear RGB patch values in row-major chart order."""

    patches: np.ndarray  # (24, 3) float64
    white_index: int = DEFAULT_WHITE_INDEX

    def __post_init__(self):
        patches = np.asarray(self.patches, dtype=np.float64)
        if patches.shape != (CHART_PATCHES, 3):
            raise ValueError(f"expected ({CHART_PATCHES}, 3) patches, got {patches.shape}")
        if not np.isfinite(patches).all():
            raise ValueError("non-finite patch component")
        if (patches < 0).any():
            raise ValueError("negative patch component")
        if not 0 <= self.white_index < CHART_PATCHES:
            raise ValueError(f"white_index {self.white_index} out of range")
        object.__setattr__(self, "patches", patches)

    @property
    def white(self) -> np.ndarray:
        return self.patches[self.white_index]


@dataclass(frozen=True)
class ChartGridSpec:
    """Chart location in image space: 4 corners plus per-patch inset.

    Corners are (x, y) pixel coordinates ordered top-left, top-right,
    bottom-right, bottom-left of the 6x4 patch grid.
    """

    corners: np.ndarray  # (4, 2) float64
    rows: int = CHART_ROWS
    cols: int = CHART_COLS
    inset: float = DEFAULT_INSET

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=np.float64)
        if corners.shape != (4, 2):
            raise ValueError(f"expected 4 corner points, got shape {corners.shape}")
        if not (0.0 < self.inset < 0.5):
            raise ValueError(f"inset {self.inset} not in (0, 0.5)")
        if not _is_convex(corners):
            raise ValueError("chart corners do not form a convex quadrilateral")
        object.__setattr__(self, "corners", corners)


def _is_convex(corners: np.ndarray) -> bool:
    crosses = []
    for i in range(4):
        a = corners[(i + 1) % 4] - corners[i]
        b = corners[(i + 2) % 4] - corners[(i + 1) % 4]
        crosses.append(a[0] * b[1] - a[1] * b[0])
    crosses = np.array(crosses)
    return bool((crosses > 0).all() or (crosses < 0).all())


def encode_transfer(image: LinearImage, gamma: float = 2.4) -> np.ndarray:
    """Scene-linear to display-referred: each component to the power 1/gamma."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return image.data ** (1.0 / gamma)


def trimmed_mean(values: np.ndarray, trim: float = TRIM_FRACTION) -> np.ndarray:
    """Per-channel mean after dropping the top and bottom `trim` fraction."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    n = values.shape[0]
    k = int(n * trim)
    kept = np.sort(values, axis=0)[k : n - k]
    # constant channels pass through exactly instead of accruing summation ulps
    return np.where(kept[0] == kept[-1], kept[0], kept.mean(axis=0))


def _bilinear_point(corners: np.ndarray, u, v) -> np.ndarray:
    tl, tr, br, bl = corners
    u = np.asarray(u, dtype=np.float64)[..., None]
    v = np.asarray(v, dtype=np.float64)[..., None]
    return (1 - u) * (1 - v) * tl + u * (1 - v) * tr + u * v * br + (1 - u) * v * bl


def _pixels_in_quad(image: LinearImage, quad: np.ndarray) -> np.ndarray:
    """Collect pixel values whose centers fall inside a convex quad."""
    x0 = max(int(np.floor(quad[:, 0].min())), 0)
    x1 = min(int(np.ceil(quad[:, 0].max())), image.width)
    y0 = max(int(np.floor(quad[:, 1].min())), 0)
    y1 = min(int(np.ceil(quad[:, 1].max())), image.height)
    if x1 <= x0 or y1 <= y0:
        return np.empty((0, 3))
    xs, ys = np.meshgrid(
        np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5, indexing="xy"
    )
    # winding sign from the quad's signed area
    area2 = sum(
        quad[i, 0] * quad[(i + 1) % 4, 1] - quad[(i + 1) % 4, 0] * quad[i, 1]
        for i in range(4)
    )
    sign = 1.0 if area2 >= 0 else -1.0
    inside = np.ones(xs.shape, dtype=bool)
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        inside &= sign * cross >= 0
    return image.data[y0:y1, x0:x1][inside]


def extract_chart(
    image: LinearImage,
    grid: ChartGridSpec,
    white_index: int = DEFAULT_WHITE_INDEX,
) -> ChartSamples:
    """Sample the 24 chart patches as trimmed means of their inset regions.

    Each patch is the axis-aligned cell of the 6x4 grid shrunk by the inset
    fraction on every side, mapped into the image through the bilinear quad
    defined by the grid corners.
    """
    corners = grid.corners
    if (
        (corners[:, 0] < 0).any()
        or (corners[:, 0] > image.width).any()
        or (corners[:, 1] < 0).any()
        or (corners[:, 1] > image.height).any()
    ):
        raise ChartExtractionError("chart grid corner outside image bounds")

    patches = np.zeros((grid.rows * grid.cols, 3))
    for r in range(grid.rows):
        for c in range(grid.cols):
            idx = r * grid.cols + c
            u = np.array([c + grid.inset, c + 1 - grid.inset]) / grid.cols
            v = np.array([r + grid.inset, r + 1 - grid.inset]) / grid.rows
            quad = _bilinear_point(
                corners,
                np.array([u[0], u[1], u[1], u[0]]),
                np.array([v[0], v[0], v[1], v[1]]),
            )
            values = _pixels_in_quad(image, quad)
            if values.shape[0] < 4:
                raise ChartExtractionError(
                    f"patch {idx} region has {values.shape[0]} pixels (< 4)"
                )
            patches[idx] = trimmed_mean(values)
    return ChartSamples(patches, white_index=white_index)


def sample_roi(image: LinearImage, roi: tuple[int, int, int, int]) -> np.ndarray:
    """Trimmed-mean RGB of an axis-aligned (x, y, w, h) region."""
    x, y, w, h = (int(v) for v in roi)
    if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > image.width or y + h > image.height:
        raise ValueError(f"ROI {roi} outside image bounds")
    return trimmed_mean(image.data[y : y + h, x : x + w])


def normalize_green_white(reference: ChartSamples, subject: ChartSamples) -> ChartSamples:
    """Rescale subject so its white patch green channel matches the reference's.

    One scalar is applied to all channels of all patches, so relative colors
    are untouched; only the global exposure difference is removed.
    """
    ref_g = reference.white[1]
    sub_g = subject.white[1]
    if ref_g <= 0 or sub_g <= 0:
        raise ValueError("white patch green channel must be > 0 in both charts")
    return ChartSamples(subject.patches * (ref_g / sub_g), white_index=subject.white_index)


def render_comparison_chart(
    target: ChartSamples,
    measured: ChartSamples,
    normalize: bool = False,
    patch_size: int = 48,
) -> LinearImage:
    """Draw target values as squares with measured values as inset circles."""
    if normalize:
        measured = normalize_green_white(target, measured)
    h = CHART_ROWS * patch_size
    w = CHART_COLS * patch_size
    img = np.zeros((h, w, 3))
    radius = patch_size * 0.33
    yy, xx = np.mgrid[0:patch_size, 0:patch_size]
    circle = (xx + 0.5 - patch_size / 2) ** 2 + (yy + 0.5 - patch_size / 2) ** 2 <= radius**2
    for r in range(CHART_ROWS):
        for c in range(CHART_COLS):
            idx = r * CHART_COLS + c
            cell = img[r * patch_size : (r + 1) * patch_size, c * patch_size : (c + 1) * patch_size]
            cell[:] = target.patches[idx]
            cell[circle] = measured.patches[idx]
    return LinearImage(img)


# --- file formats -----------------------------------------------------------


def read_pfm(path) -> np.ndarray:
    """Read a 3-channel PFM file; returns (h, w, 3) float64, rows top-to-bottom."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"PF":
            raise ValueError(f"{path}: not a color PFM file (magic {magic!r})")
        width, height = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        count = width * height * 3
        raw = f.read(count * 4)
    if len(raw) != count * 4:
        raise ValueError(f"{path}: truncated PFM payload")
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raw, dtype=dtype).reshape(height, width, 3)
    # PFM stores rows bottom-to-top
    return np.flipud(data).astype(np.float64)


def write_pfm(path, data: np.ndarray) -> None:
    """Write (h, w, 3) data as little-endian scene-linear PFM."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) data, got {data.shape}")
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(b"PF\n")
        f.write(f"{w} {h}\n".encode())
        f.write(b"-1.0\n")
        f.write(np.flipud(data).astype("<f4").tobytes())


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png16(path, image: LinearImage, gamma: float = 2.4) -> None:
    """Write a 16-bit RGB PNG, encoding scene-linear data with 1/gamma."""
    encoded = np.clip(encode_transfer(image, gamma=gamma), 0.0, 1.0)
    pixels = np.round(encoded * 65535.0).astype(">u2")
    h, w = pixels.shape[:2]
    rows = pixels.tobytes()
    stride = w * 6
    raw = b"".join(b"\x00" + rows[i * stride : (i + 1) * stride] for i in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(_png_chunk(b"IHDR", ihdr))
        f.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_png_chunk(b"IEND", b""))


def write_chart_csv(path, chart: ChartSamples) -> None:
    """Serialize chart samples as patch_index,r,g,b rows (full precision)."""
    with open(path, "w", newline="") as f:
        f.write("patch_index,r,g,b\n")
        for i, (r, g, b) in enumerate(chart.patches):
            f.write(f"{i},{float(r)!r},{float(g)!r},{float(b)!r}\n")


def read_chart_csv(path, white_index: int = DEFAULT_WHITE_INDEX) -> ChartSamples:
    patches = np.zeros((CHART_PATCHES, 3))
    seen = set()
    with open(path) as f:
        header = f.readline().strip()
        if header != "patch_index,r,g,b":
            raise ValueError(f"{path}: unexpected chart CSV header {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            idx_s, r, g, b = line.split(",")
            idx = int(idx_s)
            if not 0 <= idx < CHART_PATCHES:
                raise ValueError(f"{path}, line {lineno}: patch index {idx} outside [0, {CHART_PATCHES})")
            if idx in seen:
                raise ValueError(f"{path}, line {lineno}: duplicate patch index {idx}")
            patches[idx] = (float(r), float(g), float(b))
            seen.add(idx)
    if len(seen) != CHART_PATCHES:
        raise ValueError(f"{path}: expected {CHART_PATCHES} patches, got {len(seen)}")
    return ChartSamples(patches, white_index=white_index)
