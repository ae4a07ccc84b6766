"""Independent reference computations used as test oracles.

Deliberately coded apart from the package: rotations are explicit 2x2
matrices combined with a literal Kronecker product, and success
probabilities come from enumerating every measurement outcome.
"""

import math
from decimal import Decimal

import numpy as np


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def kron_rotate(amplitudes, angle1: float, angle2: float) -> np.ndarray:
    """(R(angle1) x R(angle2)) acting on a length-4 amplitude vector."""
    joint = np.kron(rotation_matrix(angle1), rotation_matrix(angle2))
    return joint @ np.asarray(amplitudes, dtype=float)


def brute_force_total(alpha: float, beta: float, phi1: float, phi2: float) -> float:
    """Average success over the 4 low-bit inputs x 4 outcomes.

    Success at (x0, y0) means the outcome parity equals x0 AND y0.
    """
    total = 0.0
    for x0 in (0, 1):
        for y0 in (0, 1):
            amps = kron_rotate(
                [alpha, 0.0, 0.0, beta],
                phi1 if x0 == 0 else phi2,
                phi1 if y0 == 0 else phi2,
            )
            probs = amps**2
            want = x0 & y0
            total += sum(p for k, p in enumerate(probs) if ((k >> 1) ^ (k & 1)) == want)
    return total / 4.0


def success_probability_full_input(
    alpha: float, beta: float, phi1: float, phi2: float, x: int, y: int
) -> float:
    """P(both outputs equal the target) for one full input pair (x, y),
    with outputs formed by XOR-ing the exchanged bits."""
    x1, x0 = (x >> 1) & 1, x & 1
    y1, y0 = (y >> 1) & 1, y & 1
    amps = kron_rotate(
        [alpha, 0.0, 0.0, beta],
        phi1 if x0 == 0 else phi2,
        phi1 if y0 == 0 else phi2,
    )
    probs = amps**2
    f_value = x1 ^ y1 ^ (x0 & y0)
    total = 0.0
    for k, p in enumerate(probs):
        a, b = k >> 1, k & 1
        out = (a ^ x1) ^ (b ^ y1)
        if out == f_value:
            total += p
    return float(total)


_POPCOUNT_16 = np.array([bin(m).count("1") for m in range(1 << 16)])


def protocol_target(x: int, y: int) -> int:
    return (x >> 1) ^ (y >> 1) ^ (x & y & 1)


def brute_force_protocol_counts(sequential: bool, ma: int, mb: int) -> np.ndarray:
    """``counts[oa, ob]``: success count of all 256 x 256 output-table pairs
    for fixed message tables, every protocol evaluated on all 16 inputs.

    Bit x of ``ma`` is Alice's message on input x; bit y of ``mb`` is Bob's
    (bit 2*y + Alice's bit when ``sequential``).  Bit 2*input + received of
    an output table is that party's output.  Each table's correct inputs
    form a 16-bit mask; a pair's count is the popcount of the AND of masks.
    """
    tables = np.arange(256)
    alice_mask = np.zeros(256, dtype=np.int64)
    bob_mask = np.zeros(256, dtype=np.int64)
    for x in range(4):
        for y in range(4):
            a = (ma >> x) & 1
            b = (mb >> (2 * y + a if sequential else y)) & 1
            want = protocol_target(x, y)
            alice_mask |= (((tables >> (2 * x + b)) & 1) == want).astype(np.int64) << (4 * x + y)
            bob_mask |= (((tables >> (2 * y + a)) & 1) == want).astype(np.int64) << (4 * x + y)
    return _POPCOUNT_16[np.bitwise_and.outer(alice_mask, bob_mask)]


def brute_force_best_simultaneous() -> tuple[int, int, int, int, int]:
    """``(count, ma, mb, oa, ob)`` of the best of all 16*16*256*256
    simultaneous protocols; ties go to the smallest (ma, mb, oa, ob)."""
    best = (-1, -1, -1, -1, -1)
    for ma in range(16):
        for mb in range(16):
            counts = brute_force_protocol_counts(False, ma, mb)
            top = int(counts.max())
            if top > best[0]:
                oa, ob = divmod(int(counts.argmax()), 256)
                best = (top, ma, mb, oa, ob)
    return best


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def horodecki_bound(alpha: float, beta: float) -> float:
    """Largest win probability of any projective strategy on alpha|00> + beta|11>.

    A round is won exactly when a XOR b = x0 AND y0, so the low-bit game is
    CHSH, won with probability 1/2 + B/8 for CHSH value B.  By the Horodecki
    criterion (Phys. Lett. A 200, 340 (1995)) the largest B over all
    projective measurements is 2 sqrt(s1^2 + s2^2), where s1 >= s2 are the
    top singular values of the correlation matrix T_ij = <sigma_i x sigma_j>.
    """
    psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
    corr = np.array([[(psi.conj() @ np.kron(si, sj) @ psi).real for sj in _PAULIS]
                     for si in _PAULIS])
    s1, s2, _ = np.linalg.svd(corr, compute_uv=False)
    return 0.5 + math.sqrt(s1 * s1 + s2 * s2) / 4.0


def procrustean_filter(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Alice's two-outcome filter (M0, M1) on alpha|00> + beta|11>, |beta| <= alpha.

    The Procrustean method of Bennett, Bernstein, Popescu & Schumacher
    (PRA 53, 2046 (1996)): M0 = diag(|beta|/alpha, 1) x I cuts the larger
    Schmidt amplitude down to the smaller one, so M0 psi is maximally
    entangled, reached with probability ||M0 psi||^2; M1 = sqrt(I - M0^T M0) x I
    is the failing outcome.  Both act on the 4-amplitude vector (c00, c01, c10, c11).
    """
    local = np.diag([abs(beta) / alpha, 1.0])
    rest = np.eye(2) - local.T @ local
    values, vectors = np.linalg.eigh(rest)
    return (np.kron(local, np.eye(2)),
            np.kron(vectors @ np.diag(np.sqrt(values)) @ vectors.T, np.eye(2)))


def schmidt_coefficients(amplitudes) -> np.ndarray:
    """Squared Schmidt coefficients of a two-qubit pure state, largest first.

    They are the eigenvalues of Alice's reduced density matrix
    rho_A = C C^T, where C[a, b] is the amplitude of |ab>.
    """
    c = np.asarray(amplitudes, dtype=float).reshape(2, 2)
    return np.sort(np.linalg.eigvalsh(c @ c.T))[::-1]


def vidal_bound(source, target) -> float:
    """Largest probability of converting ``source`` into ``target`` by LOCC, on a single copy.

    Vidal (PRL 83, 1046 (1999)): the minimum over l of E_l(source) / E_l(target),
    where E_l sums the squared Schmidt coefficients from the l-th largest on.
    Both states are 4-amplitude vectors.
    """
    lam, mu = schmidt_coefficients(source), schmidt_coefficients(target)
    return float(min(lam[l:].sum() / mu[l:].sum() for l in range(len(lam))))


# Digits for the optimal-angle reference, beyond those its 1 - x loses: about
# three per decade of 1/|alpha*beta|, as 1 - x1 is about 16|alpha*beta|^3.
ANGLE_DIGITS = 50


def angle_digits(alpha: float, beta: float) -> int:
    """Decimal precision at which ``optimal_angle_halves`` keeps ANGLE_DIGITS digits."""
    return ANGLE_DIGITS - 3 * min(0, Decimal(alpha * beta).adjusted())


def decimal_sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, summed until a term no longer changes the
    sum in the current decimal context."""
    term = total = x
    k = 1
    while True:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        k += 1
        if total + term == total:
            return total
        total += term


def optimal_angle_halves(alpha: float, beta: float) -> tuple[Decimal, Decimal]:
    """(1 - x1)/2 and (1 - x2)/2 for the optimal angles phi1 = -(1/4) arccos x1
    and phi2 = (1/4) arccos x2, in the current decimal context.

    x1 and x2 are the paper's arguments (1 + 2ab -+ t)/(1 - 2ab), with
    ab = alpha*beta and t = 4ab / sqrt(1 + 4ab^2), taken as written; the
    context's precision absorbs the cancellation in 1 - x.
    """
    ab = Decimal(alpha) * Decimal(beta)
    t = 4 * ab / (1 + 4 * ab * ab).sqrt()
    return tuple((1 - (1 + 2 * ab + sign * t) / (1 - 2 * ab)) / 2 for sign in (-1, 1))
