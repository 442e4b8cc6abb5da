"""Digests and perceptual hashes over display regions.

Cryptographic digests key the validation caches (paper §IV-A: "the key is a
cryptographic digest of the corresponding display region").  Perceptual
hashes implement the image-hash *baseline* validator [21] that vWitness's
CNN approach is compared against.
"""

from __future__ import annotations

import hashlib

from repro.vision.image import as_array, to_uint8
from repro.vision.ops import resize_bilinear


def region_digest(image) -> str:
    """SHA-256 digest of a display region (cache key).

    The region is quantized to uint8 first so that float representation
    detail does not leak into the key: two regions that would display
    identically hash identically.
    """
    arr = to_uint8(image)
    h = hashlib.sha256()
    h.update(str(arr.shape).encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


def difference_hash(image, hash_size: int = 8) -> int:
    """dHash: horizontal gradient signs of a downsampled tile."""
    small = resize_bilinear(as_array(image), hash_size, hash_size + 1)
    bits = (small[:, 1:] > small[:, :-1]).ravel()
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def hamming_distance(hash_a: int, hash_b: int) -> int:
    """Number of differing bits between two perceptual hashes."""
    return int(bin(hash_a ^ hash_b).count("1"))
