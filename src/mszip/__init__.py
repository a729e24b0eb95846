"""mszip: lossless compression of multisets at their information content.

A multiset (order-irrelevant collection) carries less information than any
particular ordering of it. This package recovers the difference by using the
entropy coder's own state as an invertible source of randomness: symbols are
sampled without replacement from the multiset and encoded in sampled order,
and the decoder reverses both steps exactly.
"""

from .ans import (B, CodeTriple, L, decode_advance, decode_peek, deserialize,
                  encode_op, length_bits, serialize, state_new)
from .container import Container, codec_blob, codec_from_blob, crc32c, pack, unpack
from .errors import ContractError, FormatError, IngestError, MszipError
from .mscodec import (RateReport, decode_multiset, encode_multiset,
                      encode_sequence, info_content, permutation_bits,
                      rate_report, sample_decode, sample_encode)
from .multiset import FreqList, FreqTree, Multiset, build_balanced
from .nested import (NestedMultiset, PairCodec, Record, canonical_json,
                     decode_nested, encode_nested, ingest_json,
                     ingest_json_records, nested_savings_bound, sequence_state)
from .symbols import ByteStringCodec, QuantizedCategorical, UniformCodec, quantize_pmf

__version__ = "0.1.0"
