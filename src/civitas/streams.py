"""numpy's seeded PCG64 streams and the draws civitas takes from them.

`spawn(seed, n)` gives the generators of
`[numpy.random.default_rng(c) for c in SeedSequence(seed).spawn(n)]` and
`default_rng(seed)` that of `numpy.random.default_rng(seed)`.
`Pcg64.exponential` and `Pcg64.integers` draw what numpy's
`Generator.exponential(scale)` and `Generator.integers(n)` draw, so a
world's arrivals and routes need no `numpy.random`; `Pcg64.doubles`
yields the uniform doubles of `Generator.random(n)` in blocks of numpy
arrays, from which `metrics.flexibility` scales its samples and calls
its predicate once per block.  The transcription covers `SeedSequence`'s
entropy pool and `generate_state`, PCG64 (O'Neill 2014: a 128-bit LCG
with the XSL-RR output) with its buffered 32-bit half, numpy's 256-layer
ziggurat for the exponential and Lemire's bounded draw.  numpy is the
oracle of its tests, which compare every draw and the state after it.
"""

from __future__ import annotations

import math
import struct

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_ZIGGURAT_EXP_R = 7.6971174701310497140446280481  # where the base layer's tail starts


def _words(n: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words; zero is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _seed_words(entropy: list[int]) -> list[int]:
    """`SeedSequence.generate_state(4, uint64)` for an assembled entropy."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):  # four uint64 as eight uint32, low word first
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _seeded(entropy: list[int]) -> Pcg64:
    w = _seed_words(entropy)
    return Pcg64.seeded(w[0] << 64 | w[1], w[2] << 64 | w[3])


def _seed_entropy(seed: int) -> list[int]:
    if seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {seed}")
    return _words(seed)


def default_rng(seed: int) -> Pcg64:
    """The generator of `numpy.random.default_rng(seed)`."""
    return _seeded(_seed_entropy(seed))


def spawn(seed: int, n: int) -> list[Pcg64]:
    """The generators of `default_rng(c) for c in SeedSequence(seed).spawn(n)`."""
    run = _seed_entropy(seed)
    run += [0] * (_POOL_SIZE - len(run))  # a spawn key pads the seed to the pool
    return [_seeded(run + _words(i)) for i in range(n)]


def _jump(steps: int, inc: int) -> tuple[int, int]:
    """(a, c) such that `steps` LCG steps map a state s to a*s + c."""
    a, c = 1, 0
    mult = PCG_MULT
    while steps:
        if steps & 1:
            a, c = a * mult & _MASK128, (c * mult + inc) & _MASK128
        mult, inc = mult * mult & _MASK128, (inc * mult + inc) & _MASK128
        steps >>= 1
    return a, c


def _affine(a: int, c: int):
    """The map s -> a*s + c mod 2**128 on arrays of states as uint64 (hi, lo).

    uint64 products wrap, which gives every term but the carry of lo times
    a's low word into the high word; that carry is summed from 32-bit limbs.
    """
    import numpy as np
    u64 = np.uint64
    a_hi, a_lo, c_hi, c_lo = u64(a >> 64), u64(a & _MASK64), u64(c >> 64), u64(c & _MASK64)
    m0, m1, m32, k32 = u64(a & _MASK32), u64(a >> 32 & _MASK32), u64(_MASK32), u64(32)

    def apply(hi, lo):
        l0, l1 = lo & m32, lo >> k32
        cross0, cross1 = l0 * m1, l1 * m0
        carry = (l0 * m0 >> k32) + (cross0 & m32) + (cross1 & m32) >> k32
        new_hi = l1 * m1 + (cross0 >> k32) + (cross1 >> k32) + carry
        new_hi += hi * a_lo + lo * a_hi + c_hi
        new_lo = lo * a_lo + c_lo
        new_hi += new_lo < c_lo  # the carry of the low words' sum
        return new_hi, new_lo
    return apply


class Pcg64:
    """numpy's PCG64 bit generator and the draws of its `Generator`."""

    __slots__ = ("lcg", "inc", "has_uint32", "uinteger")

    def __init__(self, lcg: int, inc: int):
        self.lcg = lcg  # the LCG's 128-bit state
        self.inc = inc  # its odd increment
        self.has_uint32 = False
        self.uinteger = 0  # the buffered upper half of a 64-bit output

    @classmethod
    def seeded(cls, initstate: int, initseq: int) -> Pcg64:
        """PCG's `srandom_r`: what `pcg64_set_seed` makes of the seed words."""
        gen = cls(0, (initseq << 1 | 1) & _MASK128)
        gen.next_uint64()
        gen.lcg = (gen.lcg + initstate) & _MASK128
        gen.next_uint64()
        return gen

    @property
    def state(self) -> dict:
        """The state as `numpy.random.PCG64().state` spells it."""
        return {"bit_generator": "PCG64", "state": {"state": self.lcg, "inc": self.inc},
                "has_uint32": int(self.has_uint32), "uinteger": self.uinteger}

    def next_uint64(self) -> int:
        s = self.lcg = (self.lcg * PCG_MULT + self.inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def next_uint32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = False
            return self.uinteger
        value = self.next_uint64()
        self.has_uint32 = True
        self.uinteger = value >> 32
        return value & _MASK32

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def doubles(self, n: int, block: int):
        """`n` calls of `next_double` as float64 arrays of `block` values.

        Yields the values in order, the last array holding the remainder,
        and leaves `lcg` where those calls would, block by block.  The
        first block's LCG states are built by doubling: the states so far,
        advanced by their count with one affine jump.  Each later block is
        the one before advanced `block` steps by the jump
        s -> a**block * s + c * (a**block - 1) / (a - 1) mod 2**128 (Brown
        1994).  The 128-bit states are uint64 (hi, lo) pairs; outputs are
        XSL-RR, then `(x >> 11) * 2**-53` as `next_double` takes them.
        numpy is imported here, so the scalar draws run without it.
        """
        import numpy as np
        if block < 1:
            raise ValueError(f"doubles: block must be >= 1, got {block}")
        if n < 1:
            return
        first = (self.lcg * PCG_MULT + self.inc) & _MASK128
        hi = np.array([first >> 64], dtype=np.uint64)
        lo = np.array([first & _MASK64], dtype=np.uint64)
        size = min(n, block)
        while len(lo) < size:
            jumped = _affine(*_jump(len(lo), self.inc))(hi, lo)
            hi, lo = np.concatenate((hi, jumped[0])), np.concatenate((lo, jumped[1]))
        hi, lo = hi[:size], lo[:size]
        step = _affine(*_jump(block, self.inc))
        while True:
            self.lcg = int(hi[-1]) << 64 | int(lo[-1])
            x = hi ^ lo
            rot = hi >> 58
            x = x >> rot | x << ((64 - rot) & 63)
            yield (x >> 11) * (1.0 / 9007199254740992.0)
            n -= len(lo)
            if not n:
                return
            hi, lo = step(hi[:n], lo[:n])

    def exponential(self, scale: float) -> float:
        """`Generator.exponential(scale)`: numpy's ziggurat, scaled.

        Each step rounds as numpy's C does: Python floats are IEEE doubles
        and `math.exp` and `math.log1p` call the same C library.  A rejected
        wedge draw starts over, where numpy recurses.
        """
        while True:
            ri = self.next_uint64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x  # 98.9 % of draws
            if idx == 0:  # the tail beyond the base layer
                return scale * (_ZIGGURAT_EXP_R - math.log1p(-self.next_double()))
            if (FE[idx - 1] - FE[idx]) * self.next_double() + FE[idx] < math.exp(-x):
                return scale * x

    def integers(self, n: int) -> int:
        """`Generator.integers(n)` for 0 < n < 2**32: uniform over range(n)."""
        if not 0 < n <= _MASK32:
            raise ValueError(f"integers: n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0  # numpy draws nothing for a range of one
        m = self.next_uint32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n
            while m & _MASK32 < threshold:
                m = self.next_uint32() * n
        return m >> 32


# numpy's ke_double, we_double and fe_double (random/src/distributions/
# ziggurat_constants.h) as little-endian uint64 and IEEE doubles.  They are
# data, not recomputed: 131 entries of KE lie one below their exact floor.
KE = struct.unpack("<256Q", bytes.fromhex("""
c697242714521c0000000000000000007e319cd75b7d1300103c3f8ef56e1800
aeb00e32b79b1a007c4419f727d11b001a65880f1d951c0072395c2dfe1b1d00
b2186bd55b7e1d00702c17dd34c91d00c89dacdf09041e003678d4717b331e00
a2b77c178b5a1e006c046f09427b1e003eae08af0d971e009ef04eb1f5ae1e00
5665b407bdc31e00ce9987f0f6d51e0088566eae14e61e00d01c36ca6ef41e00
a4d4dd764b011f00b696a713e30c1f007af7f16963171f007025450cf2201f00
74a85119ae291f003255b98fb1311f0006c1575112391f004c696eebe23f1f00
fa88d73233461f000e3a1dbf104c1f0022335c4c87511f00c0ecc309a1561f00
969909d9665b1f008cd01082e05f1f00725744dd14641f00789685f609681f00
e6022b2ac56b1f00f4e4323d4b6f1f003af19071a0721f00d6094d97c8751f00
c05c041bc7781f00f43f41129f7b1f008a9f0746537e1f003811e23be6801f00
6291ad3d5a831f0012b95660b1851f006242b289ed871f00fa749375108a1f00
ac393dba1b8c1f004ad045cc108e1f00163e0102f18f1f00e0588396bd911f00
d8af47ac77931f00da648b4f20951f0092386378b8961f009288960c41981f00
80ba46e1ba991f00007f69bc269b1f007a711b56859c1f0002d8cf59d79d1f00
cea161671d9f1f00c036091458a01f0038333aeb87a11f00fcc46b6fada21f00
8206ce1ac9a31f00a26aee5fdba41f007c094daae4a51f008267e45ee5a61f00
c41ea5dcdda71f0074a8e67ccea81f00ee5fce93b7a91f0058b8ad7099aa1f00
3282585e74ab1f00840574a348ac1f00e89fbf8216ad1f00c082573bdead1f00
6c1df208a0ae1f007eb018245caf1f00127a5bc212b01f00f4df8116c4b01f00
faf1b65070b11f003a96b29e17b21f004aa8df2bbab21f00184e7f2158b31f00
0cbec9a6f1b31f00d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f00
58fe37282eb61f000a01c988b3b61f009807b53f35b71f00a87ddc68b3b71f00
08bad61e2eb81f00f647037ba5b81f00740f9a9519b91f000472ba858ab91f00
266f7961f8b91f0086e2ee3d63ba1f0016ec412fcbba1f004491b44830bb1f00
e2a4ae9c92bb1f009e02c83cf2bb1f009429d2394fbc1f00d440e1a3a9bc1f00
9e8f548a01bd1f009c72defb56bd1f006ad68b06aabd1f00403fcbb7fabd1f00
de64731c49be1f005e69c94095be1f0028b18630dfbe1f007461def626bf1f00
e28a829e6cbf1f00c404a931b0bf1f00b0fd0fbaf1bf1f008845024131c01f00
b2545bcf6ec01f0026148b6daac01f008a699923e4c01f00648a29f91bc11f00
42197df551c11f004a0f771f86c11f00b4749e7db8c11f0042ea2016e9c11f00
de05d5ee17c21f00fe833c0d45c21f00c24f867670c21f000e63902f9ac21f00
4680e93cc2c21f00b4c6d2a2e8c21f00ec2241650dc31f000e9cde8730c31f00
c67e0b0e52c31f00f866dffa71c31f0086282a5190c31f00fa977413adc31f00
48330144c8c31f0040abcce4e1c31f00a84d8ef7f9c31f006050b87d10c41f00
68fd777825c41f00c6bfb5e838c41f002a1115cf4ac41f00e847f42b5bc41f00
04456cff69c41f00b201504977c41f00b8fb2b0983c41f00f67f453e8dc41f00
1ad299e795c41f00b030dd039dc41f0032b47991a2c41f00fc078e8ea6c41f00
8cfbebf8a8c41f009eea16cea9c41f0034fa410ba9c41f00a0284eada6c41f00
742ec8b0a2c41f00e22de6119dc41f00f42d85cc95c41f00c05e26dc8cc41f00
7a23ec3b82c41f00e6de96e675c41f00827e81d667c41f0036c09d0558c41f00
202e706d46c41f0098cb0b0733c41f000e6e0dcb1dc41f00f6bb96b106c41f00
62cb48b2edc31f003c593ec4d2c31f00b49105deb5c31f004c6199f596c31f00
92455a0076c31f00709306f352c31f001828b2c12dc31f008878bd5f06c31f00
62f2cbbfdcc21f009e9fb9d3b0c21f00f0fc8f8c82c21f0064f179da51c21f00
9ed3b6ac1ec21f0056678cf1e8c11f003cbb3796b0c11f0010cddc8675c11f00
b6d674ae37c11f001424bbf6f6c01f00a44d1848b3c01f00f0af8b896cc01f00
64f392a022c01f00b8720f71d5bf1f008e4829dd84bf1f000ac62fc530bf1f00
c60c7707d9be1f00da7d32807dbe1f0014a64b091ebe1f000844357ababd1f00
26f8b9a752bd1f001a20c663e6bc1f00e44d2c7d75bc1f00aab763bfffbb1f00
a2e63ff284bb1f008cd1a0d904bb1f00ac701a357fba1f0018b692bff3b91f00
fcabd42e62b91f00164a1733cab81f00545b76762bb81f005c895b9c85b71f00
9455d540d8b61f004269d9f722b61f00e0376f4c65b51f00d269bfbf9eb41f00
46e703c8ceb31f003e9c53cff4b21f005228443210b21f0004965a3e20b11f00
c2e1423024b01f00a679c4311baf1f0004e1675704ae1f00722dbf9ddeac1f00
0a0640e6a8ab1f0028ff99f361aa1f00a2666f6508a91f003c8d50b39aa71f00
14f2d12617a61f0000ea8bd47ba41f0094c0c593c6a21f0014f37df4f4a01f00
0abe6b33049f1f00bcf9792bf19c1f00c4ab1544b89a1f00b82f785b55981f00
783fd0abc3951f00f2f1cea9fd921f001ce49adafc8f1f00f885739eb98c1f00
069647ec2a891f008edb04f945851f009a0336c3fd801f0026e93978427c1f00
cc2a58a300771f001c241a0f20711f002a35b734826a1f0066e2a80000631f00
c4e34f90665a1f007211ce4e72501f00da6f5c66c7441f00a2598aa3e5361f00
0a34503414261f0014047b043e111f00e6cb57faaef61e001e1588a18cd31e00
b02d121ea6a21e007c268bc761591e00b00bac2bf6dd1d00c0e8e4d94ddb1c00
"""))
WE = struct.unpack("<256d", bytes.fromhex("""
c15dbf94ec64d13c19415d8b9d58603c2b4d5b49b2d66a3cba8d5ba93593713c
732a4ae5e622753c807ac2fb9050783cccb779efd1387b3c98bd6db7d8ec7d3c
3c5cc649f03b803c70f6d624db70813c3326da900298823cca6e3dfe88b3833c
21fe0bc615c5843cc34a029df8cd853cbd2ba7f040cf863c19d017dacdc9873c
6f60d35459be883cd237225580ad893c03525dbec8978a3cc4a3dddda57d8b3c
893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c
0932685dd2c48f3c58756aed764b903cfc809b4748b3903caff54987f319913c
a0df4beb8c7f913ce7493ee926e4913c2eff3865d247923c0b6823e19eaa923c
4bda26a59a0c933c02826de2d26d933ca06221d153ce933c486770ca282e943c
12e7355f5c8d943c930bcd6bf8eb943c4d6f7829064a953cfdbeb83d8ea7953c
cf2eddc79804963ce0680c6d2d61963c44a9fa6253bd963cbb9079791119973c
737907236e74973c72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c
2ac5d05088de983c44a2fdbd5338993c3813ad42de91993cbf03ff752ceb993c
4a8814be42449a3c61d29653259d9a3cc924f244d8f59a3c9b974c795f4e9b3c
898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3cdb5ac22b10af9c3c
fbe6f08ef2069d3c8d6bd8f1bd5e9d3c5790426a75b69d3cfe317cf71b0e9e3c
4410cf83b4659e3c621be2e541bd9e3c9f9402e2c6149f3cb5fe572b466c9f3c
a1a90465c2c39f3cd93c9a119f0da03c62b10df65d39a03cf876721c1f65a03c
72004bbbe390a03c37017103adbca03c662f7a207ce8a03c15ac17395214a13c
be7d706f3040a13cfb7f77e1176ca13c96233da90998a13c83523ddd06c4a13c
e2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23c
aacd8b74c9a0a23c5d3ba56421cda23c211703118cf9a23c1176fb7c0a26a33c
a11b8aaa9d52a33cf01a859a467fa33cfcefcf4c06aca33c6d338dc0ddd8a33c
c4094ff4cd05a43cd06c46e6d732a43ca76c7194fc5fa43cc483c8fc3c8da43c
a4186b1d9abaa43cea45cbf414e8a43cfb00d981ae15a53cf8b52cc46743a53c
276f31bc4171a53cf99c4e6b3d9fa53c359311d45bcda53c26cf56fa9dfba53c
2e1a73e3042aa63c8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c
08a659cb24e5a63cfba950115314a73c1c04fa61ac43a73c30d177d13173a73c
0a24b176e4a2a73cf7177d6bc5d2a73c7772ceccd502a83c2ae6dfba1633a83c
e70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c1315fef316f6a83c
e1738e045c27a93c8a8235b2d858a93cf4bb40398e8aa93c5d03c7da7dbca93c
51e9dddca8eea93c2d59d08a1021aa3c90c65635b653aa3c0ff3d0329b86aa3c
7a6581dfc0b9aa3cffacca9d28edaa3cb58b6ed6d320ab3c4225cff8c354ab3c
b64f327bfa88ab3c102607db78bdab3c85fd2d9d40f2ab3c2de0424e5327ac3c
a4b1ea82b25cac3cfb2323d85f92ac3c6ca595f35cc8ac3c8071ed83abfeac3c
adf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c7f35d24a37dbad3c
9b5026b43713ae3c52a4167c944bae3c7f23f49a4f84ae3c78764a156bbdae3c
68915bfce8f6ae3c7fbca06ecb30af3cd05e5198146baf3ce5e1efb3c6a5af3c
d809dd0ae4e0af3cd411f97a370eb03c1b3911ef342cb03ca324929e6b4ab03c
db2611cfdc68b03c0fad3acf8987b03c19c833f773a6b03c6f9400a99cc5b03c
b7cfef5005e5b03cceef0b66af04b13c4a15926a9c24b13c2b3a6feccd44b13c
c104c4854565b13c9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c
70339baa02eab13ca2f4f093f20bb23c50e54f52332eb23cba3b40e6c650b23c
a6dac761af73b23c2b5342e9ee96b23c51db45b487bab23c702d960e7cdeb23c
65592659ce02b33cd0a72a0b8127b33c65c93bb3964cb33c56a88cf81172b33c
4351349cf597b33c838b8d7a44beb33cd0dead8c01e5b33cadeef5e92f0cb43c
f842bdc9d233b43c2cc91b85ed5bb43c3294d3988384b43c4ca15da798adb43c
27b11c7b30d7b43c0895b9084f01b53cb2aaac71f82bb53c5aa7f8063157b53c
61441b4cfd82b53c07e138fa61afb53c9ebd880364dcb53c79180897080ab63c
942e7b245538b63c32f4c3604f67b63cee48974afd96b63c1e7b9a2f65c7b63c
0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73c
d376147d47c5b73c12146ee9a3fab73cc3bec02cf130b83c427368063968b83c
ab5b69ce85a0b83c95363b82e2d9b83c4475f3d25a14b93c0e2afc34fb4fb93c
d81a8df1d08cb93cead9243aeacab93c78f1493e560aba3c3b4ce843254bba3c
ea86adc2688dba3cc445d88233d1ba3c0ab603c09916bb3c0fea9150b15dbb3c
5eda76d291a6bb3c77ef4bde54f1bb3ca7e0c241163ebc3cf4c8c842f48cbc3c
7fa9f2ec0fdebc3cc538276b8d31bd3cec3bec6f9487bd3c9ff14eaf50e0bd3c
6009196ef23bbe3cc183f32aaf9abe3c4aea5067c2fcbe3ca7f791976e62bf3c
e5c6f643fecbbf3c2eec62b3e21cc03cef8ef58b1156c03c4ea5cbcdc191c03c
a0485d7831d0c03ca6924303a811c13c2a4475677856c13cd6c2b3bc039fc13c
7cfac9a0bcebc13c9f9159b62b3dc23ca5aa49aef593c23cf011448ae3f0c23c
5ef7cc27ee54c33c61b8c8c74ec1c33c6213e4669737c43cd15147cdd7b9c43c
f673cf3cd84ac53cd21373e17aeec53c72bf4b6d67aac63c2fc6ead65087c73c
19edf2e69f93c83c857b480ddce9c93cfc71da519ec3cb3c83bb7e29d9c9ce3c
"""))
FE = struct.unpack("<256d", bytes.fromhex("""
000000000000f03f371188e54505ee3ff1ff8150a6d0ec3f277beb7b00e5eb3f
2a7fe60e0f21eb3fe7fa62a5ba76ea3f9b6d551597dee93f39aa55c43154e93f
2fd2d376a3d4e83fb8c50678e85de83f2631242d8aeee73f7ed4099b6e85e73f
634ba95bbb21e73fc6188449c3c2e63f065c4f6dfa67e63f66afa7c1ed10e63f
75ac4c693dbde53f7387da82986ce53f9a897815ba1ee53faff851c166d3e43f
69e08efb6a8ae43f25e1a8af9943e43f808bb12bcbfee33f14d1e144dcbbe33f
d9dd08a7ad7ae33f18630e45233be33f5eda45e323fde23f244f1fb698c0e23f
bd3211116d85e23fa3508c228e4be23fc83e81baea12e23f897b871973dbe13f
253b1ec718a5e13fee6fce6dce6fe13f9c1633bc873be13f8dc31c4a3908e13f
2b1e2b81d8d5e03f2ad054885ba4e03f7d3bee31b973e03f4865d2ebe843e03f
24f360b1e214e03f764521fe3dcddf3ffac5bf8e2d72df3f4d42ebd18618df3f
909d964b3dc0de3f51d37d364569de3ffc37e1759313de3f0c21a7881dbfdd3f
7aedb97dd96bdd3f0b1a7ee9bd19dd3f92e040dcc1c8dc3f60fb83d9dc78dc3f
83a50ed0062adc3fb5eeae1238dcdb3f880b9951698fdb3f6f8054949343db3f
5fef2834b0f8da3fe5f6fdd6b8aeda3f4001a36aa765da3ff4217520761dda3f
92375a691fd6d93fa87b09f29d8fd93f10819a9fec49d93f045d548c0605d93f
395db704e7c0d83f8c3fbc84897dd83f386144b5e93ad83f59ceb66903f9d73f
1e80c69dd2b7d73fe3725e735377d73fea8db0308237d73f9d9e643e5bf8d63f
9ce9e425dbb9d63f9f0dc68ffe7bd63fe4274842c23ed63f7658ef1f2302d63f
6cee31261ec6d53fefa93a6cb08ad53fe7a3bd21d74fd53ff589de8d8f15d53f
1df9260ed7dbd43fd3da8b15aba2d43fefbe802b096ad43fe24118ebee31d43f
4ea130025afad33f85b2ab3048c3d33fef7db147b78cd33fddd0fc28a556d33f
352431c60f21d33f70423920f5ebd23f6222ae4653b7d23f297645572883d23f
fd76477d724fd23fff7e0bf12f1cd23fdb097bf75ee9d13f5abc9ae1fdb6d13f
8219190c0b85d13fef91e2de8453d13fba9fbacc6922d13f6ca6d952b8f1d03f
33538ff86ec1d03f133ee94e8c91d03fd2905df00e62d03f2c7c7980f532d03f
6a4793ab3e04d03f5493ff4cd2abcf3f7e3e965ce74fcf3f9be0e80fbaf4ce3f
f2405900489ace3fa7832fd68e40ce3f394f22488ce7cd3fb8eee31a3e8fcd3f
fd31b420a237cd3f9fd0f638b6e0cc3f0218ce4f788acc3feeafb95de634cc3f
35443967fedfcb3fa5e4727cbe8bcb3f3eefdcb82438cb3f0b5beb422fe5ca3f
493cc04bdc92ca3fbc5cdf0e2a41ca3f12c5e4d116f0c93f23163ee4a09fc93f
a192e69ec64fc93f79bb25648600c93fd562509fdeb1c83ff91a8cc4cd63c83f
e6e794505216c83fae1b85c86ac9c73ffe469fb9157dc73f39281ab95131c73f
ea84ee631de6c63f28daa65e779bc63facd130555e51c63f316ab0fad007c63f
b6c25409cebec53ff5782e425476c53f498c076d622ec53ffab63c58f7e6c43f
963098d811a0c43fc6cc2dc9b059c43f9a6a380bd313c43f05a9f88577cec33f
c9d594269d89c33faf0cfadf4245c33f6e7dbeaa6701c33f34cf04850abec23f
409960722a7bc23f78e8bb7bc638c23f65ca3dafddf6c13f66d631206fb5c13f
78aef0e67974c13f2f71c920fd33c13f2017eceff7f3c03f2fb6547b69b4c03f
bea5b7ee5075c03f047f6e7aad36c03f8deacba6fcf0bf3f140419668575bf3f
3cc383aef3fabe3fccb98e044681be3ffbba61f57a08be3f9893ad169190bd3f
d74d91068719bd3f57fd806b5ba3bc3faf102ef40c2ebc3f8f2671579ab9bb3f
486535540246bb3f655465b143d3ba3fb738d93d5d61ba3f28f446d04df0b93f
706b33471480b93fb974e588af10b93f3b535a831ea2b83fbac43b2c6034b83f
f3a6d78073c7b73f1e3c1986575bb73fb61684480bf0b63f20b630dc8d85b63f
f7deca5cde1bb63f3ebb91edfbb2b53f36d059b9e54ab53f29d990f29ae3b43f
5c9843d31a7db43f0eb1259d6417b43f9e9f9b9977b2b33f18e7c619534eb33f
d18d9476f6eab23f7005ce106188b23f8c9d2c519226b23f40a36fa889c5b13f
9253758f4665b13f50ca5687c805b13f3b1b87190fa7b03f17c8f5d71949b03f
769669bad0d7af3f34e84499f41eaf3fe5b22ea59e67ae3f10583149ceb1ad3f
4a791e0383fdac3fe9210764bc4aac3f85d9be107a99ab3f84806ac2bbe9aa3f
38f11b47813baa3f4c7c7b82ca8ea93f6d77806e97e3a83f6b393a1ce839a83f
9e08abb4bc91a73f52afb67915eba63f41a026c7f245a63fcad2c51355a2a53f
ebc596f23c00a53f196b2614ab5fa43fff18ff47a0c0a33fae143f7e1d23a33f
0cc056c92387a23fd412f35fb4eca13fa1b3199fd053a13f51d67c0c7abca03f
eefa0d59b226a03f9098afc7f6249f3f6874517aaeff9d3f0c1b335490dd9c3f
7058fa50a1be9b3f9b4e92e6e6a29a3f482a130f678a993f6799ec532875983f
96fc87da3163973f7740a2728b54963f5102aba63d49953fbef087ce5141943f
845d3125d23c933f323ab9e1c93b923f5f5f7254453e913ff0021e095244903f
cec789defd9b8e3f57276e14b9b68c3f2dc94255fad88a3fbda78f68ea02893f
f574aae6b634873fcb16e40b936e853f626f51c1b8b0833f7176b3ed69fb813f
f9d75f29f24e803fc55d74fa51577d3f364897d4e9237a3f2036ec379f04773f
fd22e3ce97fa733f434057693d07713f114bcd81b3586c3ffffea1f388d8663f
24a3e1a86b94613f253e0c54b52b593fb9fc8df70ab24f3f4b0b9f321cc33d3f
"""))
