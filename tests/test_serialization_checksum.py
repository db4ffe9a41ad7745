"""CRC32 framing tests: round trips for all four codecs, plus rejection
of truncated and single-bit-flipped payloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap.plain import PlainBitmap
from repro.bitmap.plwah import PlwahBitmap
from repro.bitmap.roaring import RoaringBitmap
from repro.bitmap.serialization import (
    CODEC_PLAIN,
    CODEC_PLWAH,
    CODEC_ROARING,
    CODEC_WAH,
    deserialize_bitmap,
    deserialize_plain,
    deserialize_plwah,
    deserialize_roaring,
    deserialize_wah,
    payload_codec,
    serialize_bitmap,
    serialize_plain,
    serialize_plwah,
    serialize_roaring,
    serialize_wah,
    verify_frame,
)
from repro.bitmap.wah import WahBitmap
from repro.errors import BitmapDecodeError, ChecksumError

POSITIONS = [0, 3, 64, 65, 1000, 4095, 9999]
NUM_BITS = 10_000

CODECS = {
    "wah": (
        lambda: WahBitmap.from_positions(POSITIONS, NUM_BITS),
        serialize_wah,
        deserialize_wah,
        CODEC_WAH,
    ),
    "plwah": (
        lambda: PlwahBitmap.from_positions(POSITIONS, NUM_BITS),
        serialize_plwah,
        deserialize_plwah,
        CODEC_PLWAH,
    ),
    "roaring": (
        lambda: RoaringBitmap.from_positions(POSITIONS, NUM_BITS),
        serialize_roaring,
        deserialize_roaring,
        CODEC_ROARING,
    ),
    "plain": (
        lambda: PlainBitmap.from_positions(POSITIONS, NUM_BITS),
        serialize_plain,
        deserialize_plain,
        CODEC_PLAIN,
    ),
}


@pytest.fixture(params=sorted(CODECS), ids=sorted(CODECS))
def codec(request):
    return request.param


class TestRoundTrip:
    def test_roundtrip_preserves_bitmap(self, codec):
        build, serialize, deserialize, _ = CODECS[codec]
        bitmap = build()
        restored = deserialize(serialize(bitmap))
        assert restored == bitmap
        assert list(restored.to_positions()) == POSITIONS

    def test_empty_bitmap_roundtrip(self, codec):
        build, serialize, deserialize, _ = CODECS[codec]
        cls = type(build())
        empty = cls.zeros(512)
        assert deserialize(serialize(empty)) == empty

    def test_frame_reports_codec(self, codec):
        build, serialize, _, codec_id = CODECS[codec]
        payload = serialize(build())
        assert payload_codec(payload) == codec_id
        assert verify_frame(payload) == codec_id

    def test_generic_dispatch_roundtrip(self, codec):
        build, _, _, _ = CODECS[codec]
        bitmap = build()
        restored = deserialize_bitmap(serialize_bitmap(bitmap))
        assert type(restored) is type(bitmap)
        assert restored == bitmap

    def test_wrong_codec_rejected(self, codec):
        build, serialize, _, _ = CODECS[codec]
        payload = serialize(build())
        others = [
            CODECS[name][2] for name in sorted(CODECS) if name != codec
        ]
        for deserialize_other in others:
            with pytest.raises(BitmapDecodeError):
                deserialize_other(payload)


class TestCorruptionRejection:
    def test_every_truncation_rejected(self, codec):
        build, serialize, deserialize, _ = CODECS[codec]
        payload = serialize(build())
        for cut in range(len(payload)):
            with pytest.raises(BitmapDecodeError):
                deserialize(payload[:cut])

    def test_every_single_bit_flip_rejected(self, codec):
        """CRC32 detects any single-bit error by construction."""
        build, serialize, deserialize, _ = CODECS[codec]
        payload = serialize(build())
        for position in range(len(payload) * 8):
            corrupted = bytearray(payload)
            corrupted[position // 8] ^= 1 << (position % 8)
            with pytest.raises(BitmapDecodeError):
                deserialize(bytes(corrupted))

    def test_trailing_garbage_rejected(self, codec):
        build, serialize, deserialize, _ = CODECS[codec]
        payload = serialize(build())
        with pytest.raises(BitmapDecodeError):
            deserialize(payload + b"\x00")

    def test_payload_corruption_is_checksum_error(self, codec):
        """A flip in the body (past the length-checked header fields)
        surfaces as the typed ChecksumError, the executor's retry cue."""
        build, serialize, deserialize, _ = CODECS[codec]
        payload = bytearray(serialize(build()))
        payload[-5] ^= 0x10  # inside body, away from header/CRC trailer
        with pytest.raises(ChecksumError):
            deserialize(bytes(payload))


ONE_FILL = 0xC0000000  # fill flag + fill value 1; OR in the group count


class TestWahFrameFitsLength:
    """Frames that pass the CRC but whose words do not fit ``num_bits``
    are rejected as :class:`BitmapDecodeError`, the executor's
    retry/degrade cue, instead of decoding into out-of-range bits."""

    @pytest.mark.parametrize(
        "num_bits, words",
        [
            (62, [ONE_FILL | 3]),  # covers 3 groups, 62 bits need 2
            (62, [ONE_FILL | 1]),  # covers 1 group only
            (40, [ONE_FILL | 1, 0x7FFFFFFE]),  # literal sets padding
            (40, [ONE_FILL | 2]),  # fill sets the padding bits
            (0, [0x80000000 | 1]),  # zero-length bitmap with a group
        ],
        ids=["too-many-groups", "too-few-groups", "literal-padding",
             "fill-padding", "empty-with-words"],
    )
    def test_ill_fitting_words_rejected(self, num_bits, words):
        payload = serialize_wah(WahBitmap(words, num_bits))
        assert verify_frame(payload) == CODEC_WAH  # the CRC holds
        with pytest.raises(BitmapDecodeError):
            deserialize_wah(payload)

    def test_ill_fitting_plwah_words_rejected(self):
        payload = serialize_plwah(
            PlwahBitmap(WahBitmap([ONE_FILL | 3], 62))
        )
        with pytest.raises(BitmapDecodeError):
            deserialize_plwah(payload)

    @pytest.mark.parametrize("num_bits", [0, 1, 30, 31, 32, 62, 10_000])
    def test_well_fitting_words_accepted(self, num_bits):
        for bitmap in (WahBitmap.ones(num_bits), WahBitmap.zeros(num_bits)):
            assert deserialize_wah(serialize_wah(bitmap)) == bitmap


class TestWahZeroCopyDecode:
    def test_decoded_words_share_the_payload_buffer(self):
        payload = serialize_wah(WahBitmap.from_positions(POSITIONS, NUM_BITS))
        bitmap = deserialize_wah(payload)
        assert np.shares_memory(
            bitmap.word_array, np.frombuffer(payload, dtype=np.uint8)
        )
        assert not bitmap.word_array.flags.writeable

    def test_serialized_bytes_unchanged_by_round_trip(self):
        payload = serialize_wah(WahBitmap.from_positions(POSITIONS, NUM_BITS))
        assert serialize_wah(deserialize_wah(payload)) == payload
