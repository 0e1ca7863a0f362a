"""The paper's contribution: don't-care-aware LZW test compression."""

from ..bitstream import chars_to_vector
from .config import ConfigError, ENGINES, LZWConfig, POLICIES
from .decoder import (
    DecodeError,
    LZWDecodeError,
    decode,
    decode_codes,
    derive_final_snapshot,
    iter_decode,
)
from .dictionary import DictionarySnapshot, LZWDictionary
from .dontcare import STATIC_FILLS, ChildSelector, static_fill
from .encoder import CompressedStream, EncodeStats, LZWEncoder
from .fastpath import PackedCandidateIndex, resolve_engine
from .metrics import (
    compression_percent,
    compression_ratio,
    geometric_mean,
    x_density_percent,
)
from .multichain import (
    MultiChainResult,
    chain_streams,
    compress_interleaved,
    compress_per_chain,
    deinterleave_stream,
    interleave_stream,
    partition_chains,
)
from .pipeline import CompressionResult, compress, compress_batch, decompress
from .stream import StreamDecoder, StreamEncoder

__all__ = [
    "ENGINES",
    "POLICIES",
    "STATIC_FILLS",
    "PackedCandidateIndex",
    "ChildSelector",
    "CompressedStream",
    "CompressionResult",
    "ConfigError",
    "DecodeError",
    "DictionarySnapshot",
    "EncodeStats",
    "LZWConfig",
    "LZWDecodeError",
    "LZWDictionary",
    "LZWEncoder",
    "MultiChainResult",
    "StreamDecoder",
    "StreamEncoder",
    "chain_streams",
    "chars_to_vector",
    "compress",
    "compress_batch",
    "compress_interleaved",
    "compress_per_chain",
    "deinterleave_stream",
    "interleave_stream",
    "partition_chains",
    "compression_percent",
    "compression_ratio",
    "decode",
    "decode_codes",
    "decompress",
    "derive_final_snapshot",
    "geometric_mean",
    "iter_decode",
    "resolve_engine",
    "static_fill",
    "x_density_percent",
]
