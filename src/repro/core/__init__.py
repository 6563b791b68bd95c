"""MERCURY core: RPQ signatures, MCACHE, Hitmap and the reuse engine."""

from repro.core.config import MercuryConfig
from repro.core.rpq import RPQHasher, pack_bits, signature_via_convolution
from repro.core.signature import SignatureTable
from repro.core.hitmap import HIT_CODE, MAU_CODE, MNU_CODE
from repro.core.mcache_vec import VectorizedMCache
from repro.core.reuse import ReuseEngine
from repro.core.session import ReuseSession
from repro.core.stats import LayerReuseStats, ReuseStats
from repro.core.adaptation import SignatureLengthScheduler, SimilarityStoppage

__all__ = [
    "MercuryConfig",
    "RPQHasher",
    "pack_bits",
    "signature_via_convolution",
    "SignatureTable",
    "HIT_CODE",
    "MAU_CODE",
    "MNU_CODE",
    "VectorizedMCache",
    "ReuseEngine",
    "ReuseSession",
    "LayerReuseStats",
    "ReuseStats",
    "SignatureLengthScheduler",
    "SimilarityStoppage",
]
