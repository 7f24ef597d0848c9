"""Cache policies: the paper's full comparison zoo plus OPT replay."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "adaptsize": ("AdaptSizeCache",),
    "base": ("CachePolicy",),
    "classic": ("LFUDACache", "LRUCache", "LRUKCache", "RandomCache"),
    "greedydual": ("GDSFCache", "GDWheelCache"),
    "hyperbolic": ("HyperbolicCache",),
    "lhd": ("LHDCache",),
    "optreplay": ("OptReplayCache",),
    "rl": ("RLCache",),
    "segmented": ("S4LRUCache",),
    "tinylfu": ("CountMinSketch", "TinyLFUCache"),
})
