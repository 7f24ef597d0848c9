"""Cache policies: the paper's full comparison zoo plus OPT replay."""

from .adaptsize import AdaptSizeCache
from .base import CachePolicy
from .classic import LFUDACache, LRUCache, LRUKCache, RandomCache
from .greedydual import GDSFCache, GDWheelCache
from .hyperbolic import HyperbolicCache
from .lhd import LHDCache
from .optreplay import OptReplayCache
from .rl import RLCache
from .segmented import S4LRUCache
from .tinylfu import CountMinSketch, TinyLFUCache

__all__ = [
    "CachePolicy",
    "AdaptSizeCache",
    "LFUDACache",
    "LRUCache",
    "LRUKCache",
    "RandomCache",
    "GDSFCache",
    "GDWheelCache",
    "HyperbolicCache",
    "LHDCache",
    "OptReplayCache",
    "RLCache",
    "S4LRUCache",
    "CountMinSketch",
    "TinyLFUCache",
]
