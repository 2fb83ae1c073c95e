"""Linear image I/O, transfer-function handling, and chart patch sampling.

Everything here works in scene-linear RGB. Encoded (display-referred) values
exist only on the way out, inside write_png16. Float images travel as PFM;
charts as CSV.
"""

from __future__ import annotations

import os
import reprlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

CHART_ROWS = 4
CHART_COLS = 6
CHART_PATCHES = CHART_ROWS * CHART_COLS

# First patch of the neutral (bottom) row in row-major chart order.
DEFAULT_WHITE_INDEX = 18

# Fraction of the incident light the chart's white patch reflects.
WHITE_REFLECTANCE = 0.9

DEFAULT_INSET = 0.25
TRIM_FRACTION = 0.1

# Items per pass over a large array: pixels per read_pfm block, elements per
# as_array tile. Keeps every temporary small however large the image.
_TILE = 1 << 16


def as_array(value, shape: tuple, name: str, nonneg: bool = False) -> np.ndarray:
    """`value` as a finite float64 array of `shape`, and >= 0 with `nonneg`.

    A None in `shape` matches any length. Anything else raises ValueError
    naming `name`: non-numeric input, the wrong shape, or the index of the
    first non-finite (or, with `nonneg`, negative) component.
    """
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numeric, got {reprlib.repr(value)}") from exc
    if a.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, a.shape)):
        want = str(shape).replace("None", "n")
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    # one pass of tile min/max (NaN fails every comparison); only a failing
    # tile pays for the full-size masks that locate the first bad component
    flat = a.ravel(order="K")
    for start in range(0, flat.size, _TILE):
        tile = flat[start : start + _TILE]
        lo, hi = tile.min(), tile.max()
        if not (hi < np.inf and (lo >= 0 if nonneg else lo > -np.inf)):
            if not np.isfinite(a).all():
                _raise_at(a, ~np.isfinite(a), name, "non-finite")
            _raise_at(a, a < 0, name, "negative")
    return a


def _raise_at(a: np.ndarray, bad: np.ndarray, name: str, what: str):
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), a.shape))
    raise ValueError(f"{name} has a {what} component at index {index}: {float(a[index])}")


@dataclass(frozen=True)
class LinearImage:
    """Scene-linear RGB image, row-major, components finite and >= 0."""

    data: np.ndarray  # (height, width, 3) float64

    def __post_init__(self):
        object.__setattr__(self, "data", as_array(self.data, (None, None, 3), "image", nonneg=True))

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
        patches = as_array(self.patches, (CHART_PATCHES, 3), "patches", nonneg=True)
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
    inset: float = DEFAULT_INSET

    def __post_init__(self):
        corners = as_array(self.corners, (4, 2), "corners")
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


def trimmed_mean(values: np.ndarray) -> np.ndarray:
    """Per-channel mean after dropping the top and bottom TRIM_FRACTION."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    n = values.shape[0]
    k = int(n * TRIM_FRACTION)
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
    if (corners < 0).any() or (corners > (image.width, image.height)).any():
        raise ValueError("chart grid corner outside image bounds")

    patches = np.zeros((CHART_PATCHES, 3))
    for r in range(CHART_ROWS):
        for c in range(CHART_COLS):
            idx = r * CHART_COLS + c
            u = np.array([c + grid.inset, c + 1 - grid.inset]) / CHART_COLS
            v = np.array([r + grid.inset, r + 1 - grid.inset]) / CHART_ROWS
            quad = _bilinear_point(
                corners,
                np.array([u[0], u[1], u[1], u[0]]),
                np.array([v[0], v[0], v[1], v[1]]),
            )
            values = _pixels_in_quad(image, quad)
            if values.shape[0] < 4:
                raise ValueError(f"patch {idx} region has {values.shape[0]} pixels (< 4)")
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


def chart_image(patches, patch_size: int) -> np.ndarray:
    """A (24, 3) chart drawn as patch_size squares in row-major order, 6 across and 4 down."""
    rows = as_array(patches, (CHART_PATCHES, 3), "patches").reshape(CHART_ROWS, CHART_COLS, 3)
    return rows.repeat(patch_size, axis=0).repeat(patch_size, axis=1)


def render_comparison_chart(target: ChartSamples, measured: ChartSamples) -> LinearImage:
    """Draw target values as 48-pixel squares with measured values as inset circles.

    The measured chart is exposure-matched to the target on the white patch's
    green channel; where that green is zero (fully degenerate lighting) it is
    drawn unscaled.
    """
    try:
        measured = normalize_green_white(target, measured)
    except ValueError:
        pass
    patch_size = 48
    img = chart_image(target.patches, patch_size)
    radius = patch_size * 0.33
    yy, xx = np.mgrid[0:patch_size, 0:patch_size]
    circle = (xx + 0.5 - patch_size / 2) ** 2 + (yy + 0.5 - patch_size / 2) ** 2 <= radius**2
    inside = np.tile(circle, (CHART_ROWS, CHART_COLS))
    img[inside] = chart_image(measured.patches, patch_size)[inside]
    return LinearImage(img)


# --- file formats -----------------------------------------------------------


def read_pfm(path) -> np.ndarray:
    """Read a 3-channel PFM file; returns (h, w, 3) float64, rows top-to-bottom.

    The payload is decoded in blocks of about 64 Ki pixels, so a read holds
    the float64 image plus one small float32 block.
    """
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"PF":
            raise ValueError(f"{path}: not a color PFM file (magic {magic!r})")
        width, height = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        if width < 0 or height < 0:
            raise ValueError(f"{path}: negative PFM dimensions {width} x {height}")
        # checked before allocating, so a forged header cannot ask for more
        # memory than the file could fill
        if os.fstat(f.fileno()).st_size - f.tell() < width * height * 12:
            raise ValueError(f"{path}: truncated PFM payload")
        rows = max(1, _TILE // max(width, 1))
        block = np.empty((min(rows, height), width, 3), dtype="<f4" if scale < 0 else ">f4")
        data = np.empty((height, width, 3))
        # PFM stores rows bottom-to-top: each block fills the next band up
        for end in range(height, 0, -rows):
            chunk = block[: min(rows, end)]
            if f.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{path}: truncated PFM payload")
            data[end - len(chunk) : end] = chunk[::-1]
    return data


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


def write_png16(path, image: LinearImage) -> None:
    """Write a 16-bit RGB PNG, encoding scene-linear data with 1/2.4."""
    encoded = np.clip(image.data ** (1 / 2.4), 0.0, 1.0)
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
