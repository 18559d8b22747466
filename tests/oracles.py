"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the package's lookup tables and
vectorized paths: GF multiplication is bitwise peasant multiplication (the
decoder's log/antilog tables are built from it here), polynomial division is
schoolbook, the Reed-Solomon decoder works one word at a time on Python
lists, and the correlation scan works on plain 32-bit integers.
"""

FIELD_POLY = 0x11D
RS_N, RS_K, RS_PARITY, RS_T = 255, 239, 16, 8


def slow_gf_mul(a: int, b: int) -> int:
    """Carry-less multiply then reduce by the field polynomial, bit by bit."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= FIELD_POLY
    return prod


def slow_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Schoolbook division of descending-order polynomials over GF(256)."""
    out = list(num)
    inv_lead = _slow_inv(den[0])
    for i in range(len(num) - len(den) + 1):
        coef = slow_gf_mul(out[i], inv_lead)
        if coef:
            for j, d in enumerate(den):
                out[i + j] ^= slow_gf_mul(coef, d)
        out[i] = coef
    sep = len(num) - len(den) + 1
    return out[:sep], out[sep:]


def _slow_inv(a: int) -> int:
    for x in range(1, 256):
        if slow_gf_mul(a, x) == 1:
            return x
    raise ZeroDivisionError


def brute_mcor(preamble: bytes, k: int) -> tuple[int, list[int]]:
    """Mcor(k) by direct enumeration of the 8 straddling windows as integers.

    The preamble integer is MSB-first, so bit 31 is P(1); the i low bits of k
    are the last i transmitted extra-byte bits [d(i) .. d(1)].
    """
    p = int.from_bytes(preamble, "big")
    scores = []
    for i in range(1, 9):
        tail = k & ((1 << i) - 1)
        window = ((tail << (32 - i)) | (p >> i)) & 0xFFFFFFFF
        scores.append(32 - bin(window ^ p).count("1"))
    return max(scores), scores


def brute_best_k(preamble: bytes) -> tuple[int, int]:
    best_k, best_m = 0, 33
    for k in range(256):
        m, _ = brute_mcor(preamble, k)
        if m < best_m:
            best_k, best_m = k, m
    return best_k, best_m


def brute_window_scores(bits, preamble: bytes) -> list[int]:
    """Match count of every 32-bit window of the stream, as a sliding integer."""
    p = int.from_bytes(preamble, "big")
    window, scores = 0, []
    for i, bit in enumerate(bits):
        window = ((window << 1) | int(bit)) & 0xFFFFFFFF
        if i >= 31:
            scores.append(32 - bin(window ^ p).count("1"))
    return scores


def slow_generator() -> list[int]:
    """RS(255, 239) generator prod_(i=1..16) (x + alpha^i), descending order."""
    g = [1]
    root = 1
    for _ in range(RS_PARITY):
        root = slow_gf_mul(root, 2)
        g = [a ^ slow_gf_mul(root, b) for a, b in zip(g + [0], [0] + g)]
    return g


def _slow_log_tables() -> tuple[list[int], dict[int, int]]:
    exp = [1]
    for _ in range(254):
        exp.append(slow_gf_mul(exp[-1], 2))
    return exp, {v: i for i, v in enumerate(exp)}


_EXP, _LOG = _slow_log_tables()


def _mul(a: int, b: int) -> int:
    return 0 if a == 0 or b == 0 else _EXP[(_LOG[a] + _LOG[b]) % 255]


def _inv(a: int) -> int:
    return _EXP[(255 - _LOG[a]) % 255]


def _eval_ascending(poly: list[int], x: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = _mul(acc, x) ^ c
    return acc


def _slow_syndromes(word: list[int]) -> list[int]:
    """S_j = word(alpha^j), j = 1..16; byte i carries x^(254 - i)."""
    terms = [(_LOG[w], RS_N - 1 - i) for i, w in enumerate(word) if w]
    synd = []
    for j in range(1, RS_PARITY + 1):
        s = 0
        for log_w, deg in terms:
            s ^= _EXP[(log_w + j * deg) % 255]
        synd.append(s)
    return synd


def _slow_berlekamp_massey(synd: list[int]) -> tuple[list[int], int]:
    """Error-locator polynomial (ascending coefficients) and its length L."""
    c, b = [1], [1]
    L, m, bb = 0, 1, 1
    for n in range(len(synd)):
        d = synd[n]
        for i in range(1, L + 1):
            if i < len(c):
                d ^= _mul(c[i], synd[n - i])
        if d == 0:
            m += 1
            continue
        coef = _mul(d, _inv(bb))
        t = c[:]
        c = c + [0] * max(0, len(b) + m - len(c))
        for i, bi in enumerate(b):
            c[i + m] ^= _mul(coef, bi)
        if 2 * L <= n:
            L, b, bb, m = n + 1 - L, t, d, 1
        else:
            m += 1
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, L


def slow_rs_decode(received: bytes) -> tuple[bytes, int, bool]:
    """Scalar bounded-distance RS(255, 239) decode of one word.

    Syndromes, Berlekamp-Massey, Chien search over all 255 field points and
    Forney's formula.  Returns (data, errors corrected, uncorrectable); an
    uncorrectable word reports 0 errors and passes its data through.
    """
    word = list(received)
    synd = _slow_syndromes(word)
    failed = (bytes(word[:RS_K]), 0, True)
    if not any(synd):
        return bytes(word[:RS_K]), 0, False
    lam, L = _slow_berlekamp_massey(synd)
    if not 1 <= L <= RS_T or len(lam) - 1 != L:
        return failed
    roots = [k for k in range(255) if _eval_ascending(lam, _EXP[k]) == 0]
    if len(roots) != L:
        return failed
    # Omega = S Lambda mod x^16; Lambda' keeps the odd-power terms
    omega = [0] * RS_PARITY
    for i, si in enumerate(synd):
        for j, cj in enumerate(lam):
            if i + j < RS_PARITY:
                omega[i + j] ^= _mul(si, cj)
    deriv = [lam[j] if j % 2 == 1 else 0 for j in range(1, len(lam))]
    fixed = list(word)
    for k in roots:
        den = _eval_ascending(deriv, _EXP[k])
        mag = _mul(_eval_ascending(omega, _EXP[k]), _inv(den)) if den else 0
        if mag == 0:
            return failed
        # root alpha^k is X^-1, so the error sits at degree (-k) mod 255
        fixed[RS_N - 1 - (-k) % 255] ^= mag
    if any(_slow_syndromes(fixed)):
        return failed
    return bytes(fixed[:RS_K]), L, False
