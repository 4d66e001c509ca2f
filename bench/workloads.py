"""The four benchmark workloads: inputs from the seed, timed operations,
and the check that decides whether each operation's output is right.

A workload has a `setup(lib)` that builds everything needed before the
first timed operation, and a `round(state, index, rec)` that runs one
fixed block of operations through the recorder. Every round draws its
inputs from an rng seeded by (workload, seed, round index), so the work
a run does depends only on the seed and the number of rounds, never on
timing. `nominal_round_s` and `nominal_setup_s` are rough timings on the
machine the benchmark was defined on; they size traced runs and space
the repeated set-ups, never a measurement.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _params(lib, bits):
    return lib.field.params_from_file((DATA / f"params-{bits}.dlfp").read_bytes())


def _noisy(rng, xs, delta, p):
    return [min(max(x + rng.randint(-delta, delta), 0), p - 1) for x in xs]


def _spread_set(rng, p, count, delta):
    """count x values drawn from the whole field, pairwise gaps above 2*delta."""
    xs = []
    while len(xs) < count:
        u = rng.randrange(delta + 1, p - delta - 1)
        if all(abs(u - x) > 2 * delta for x in xs):
            xs.append(u)
    return sorted(xs)


class EnrollVerify:
    """The production path: 1024-bit params from a DLFP file, then users
    round-robin over the four schemes at the README quickstart shape."""

    name = "enroll-verify"
    # run.KERNELS entry: the time goes to 1024-bit field checks on each vault load
    kernel = "pow"
    nominal_round_s = 1.7
    nominal_setup_s = 0.4
    SET_SIZE = 40
    CHAFF = 120
    DELTA = 3
    MESSAGE_BYTES = 40
    ID_SET = 20
    ID_PROBES = 16
    ID_CHAFF = 60

    def __init__(self, seed, tiny):
        self.seed = seed

    def setup(self, lib):
        field = _params(lib, 1024)
        lib.field.binary_field()
        return {"field": field}

    def round(self, state, index, rec):
        lib = rec.lib
        field = state["field"]
        rng = _rng(self.name, self.seed, index)
        for scheme in (lib.vault.Scheme.CLASSICAL, lib.vault.Scheme.PER_SEGMENT,
                       lib.vault.Scheme.WHOLE_MESSAGE, lib.vault.Scheme.PARITY):
            # README-style locking set: small integers with gaps above 2*delta
            A = sorted(x + rng.randrange(2) for x in rng.sample(range(0, 40000, 8), self.SET_SIZE))
            message = rng.randbytes(self.MESSAGE_BYTES)
            lock_seed = rng.randrange(1 << 32)
            kept = rng.sample(A, rng.randint(30, self.SET_SIZE))
            probes = _noisy(rng, kept, self.DELTA, field.p)
            kappa, ident = rng.getrandbits(128), rng.getrandbits(64)
            id_set = rng.sample(range(1 << 16), self.ID_SET)
            id_probes = rng.sample(id_set, self.ID_PROBES)
            id_seed = rng.randrange(1 << 32)
            flip_word, flip_bits = rng.randrange(5), rng.randrange(1, 1 << 16)

            def enroll():
                vault, key = lib.vault.lock(message, A, scheme, field,
                                            chaff_count=self.CHAFF, delta=self.DELTA,
                                            seed=lock_seed)
                return vault, vault.to_bytes(), key.to_bytes()

            def enrolled(out):
                vault, vault_bytes, key_bytes = out
                return (len(vault.points) == self.SET_SIZE + self.CHAFF
                        and sum(vault.genuine_mask) == self.SET_SIZE
                        and vault_bytes[:4] == b"DLFV" and key_bytes[:4] == b"DLFK")

            def identity():
                record = lib.identity.make_identity_record(kappa, ident)
                embedded = lib.identity.identity_vault_roundtrip(
                    record, id_set, chaff_count=self.ID_CHAFF, seed=id_seed,
                    unlocking_set=id_probes)
                blob = lib.identity.identity_to_bytes(lib.identity.encode_identity(kappa, ident))
                coeffs, _ = lib.identity.identity_from_bytes(blob)
                decoded = lib.identity.decode_identity(coeffs)
                # a corrupted word in the CRC-covered tail must be rejected
                corrupted = list(coeffs)
                corrupted[flip_word] ^= flip_bits
                return embedded, decoded, lib.identity.decode_identity(corrupted)

            with rec.request():
                out = rec.op("enroll", enroll, enrolled)
                if isinstance(out, BaseException):
                    continue
                _, vault_bytes, key_bytes = out
                rec.set_context(genuine_xs=set(A))
                rec.op("verify",
                       lambda: lib.vault.unlock(lib.vault.Vault.from_bytes(vault_bytes), probes,
                                                lib.dlog_codec.KeyFile.from_bytes(key_bytes)),
                       lambda got: got == message)
                rec.set_context()
                rec.op("identity", identity,
                       lambda got: got == (True, (kappa, ident), None))


def _interleaved(rng, genuine, chaff, n, hits):
    """Probe x values: n + hits + 1 genuine and `hits` chaff points whose
    sorted order puts the chaff evenly among the genuine ones.

    m = n + 2*hits + 1 candidates keep the hits within the Reed-Solomon
    radius floor((m - n) / 2). Fixing where the chaff falls in x order
    fixes how many subsets the lexicographic search tries for a given
    hit count, so that cost does not change with the seed; the points
    themselves are drawn from the seeded corpus.
    """
    m = n + 2 * hits + 1
    chaff_at = {int((k + 0.5) * m / hits) for k in range(hits)}
    runs, run = [], 0               # genuine points needed before each chaff and after the last
    for i in range(m):
        if i in chaff_at:
            runs.append(run)
            run = 0
        else:
            run += 1
    runs.append(run)
    genuine = sorted(genuine)
    while True:
        hit = sorted(rng.sample(chaff, hits))
        bounds = [-1] + hit + [float("inf")]
        gaps = [[x for x in genuine if lo < x < hi] for lo, hi in zip(bounds, bounds[1:])]
        if all(len(gap) >= need for gap, need in zip(gaps, runs)):
            break
    xs = hit + [x for gap, need in zip(gaps, runs) for x in rng.sample(gap, need)]
    rng.shuffle(xs)
    return xs


class UnlockChaffHits:
    """Vaults at 128 and 256 bits whose locking sets span the whole field,
    opened by probes that also hit chaff, and by impostors."""

    name = "unlock-chaff-hits"
    # run.KERNELS entry: the time goes to field checks on each load and interpolation
    kernel = "pow"
    nominal_round_s = 1.0
    nominal_setup_s = 0.05
    SET_SIZE = 20
    CHAFF = 60
    DELTA = 3
    SEG_BITS = 64
    MESSAGE_BYTES = 20          # framed to 48 bytes: 6 coefficients of 64 bits
    HITS = (1, 2, 3, 4, 5)      # chaff hits of the accept probes, one of each per round
    # chaff matched by the impostors, who hold only n - 1 genuine points
    IMPOSTOR_CHAFF = (0, 4, 5, 6, 7)

    def __init__(self, seed, tiny):
        self.seed = seed
        self.copies = 1 if tiny else 2

    def setup(self, lib):
        rng = _rng(self.name, self.seed, "corpus")
        corpus = []
        for bits in (128, 256):
            field = _params(lib, bits)
            for scheme in (lib.vault.Scheme.CLASSICAL, lib.vault.Scheme.PER_SEGMENT,
                           lib.vault.Scheme.PARITY):
                for _ in range(self.copies):
                    A = _spread_set(rng, field.p, self.SET_SIZE, self.DELTA)
                    message = rng.randbytes(self.MESSAGE_BYTES)
                    vault, key = lib.vault.lock(message, A, scheme, field,
                                                chaff_count=self.CHAFF, delta=self.DELTA,
                                                seed=rng.randrange(1 << 32),
                                                seg_bits=self.SEG_BITS)
                    genuine = [x for (x, _), g in zip(vault.points, vault.genuine_mask) if g]
                    chaff = [x for (x, _), g in zip(vault.points, vault.genuine_mask) if not g]
                    corpus.append({"vault": vault.to_bytes(), "key": key.to_bytes(),
                                   "message": message, "genuine": genuine, "chaff": chaff,
                                   "n": vault.coeff_count, "p": field.p})
        return {"corpus": corpus}

    def round(self, state, index, rec):
        lib = rec.lib
        corpus = state["corpus"]
        rng = _rng(self.name, self.seed, index)
        rejected = (lib.errors.DecodeFailed, lib.errors.NotEnoughMatches)
        for j, (hits, impostor_chaff) in enumerate(zip(self.HITS, self.IMPOSTOR_CHAFF)):
            slot = index * len(self.HITS) + j
            entry = corpus[slot % len(corpus)]
            xs = _interleaved(rng, entry["genuine"], entry["chaff"], entry["n"], hits)
            self._attempt(rec, "verify", entry, _noisy(rng, xs, self.DELTA, entry["p"]),
                          lambda got, m=entry["message"]: got == m)

            other = corpus[(slot + len(corpus) // 2) % len(corpus)]
            xs = (rng.sample(other["genuine"], other["n"] - 1)
                  + rng.sample(other["chaff"], impostor_chaff))
            rng.shuffle(xs)
            self._attempt(rec, "reject", other, _noisy(rng, xs, self.DELTA, other["p"]),
                          lambda got: isinstance(got, rejected))

    @staticmethod
    def _attempt(rec, kind, entry, probes, check):
        lib = rec.lib
        rec.set_context(genuine_xs=set(entry["genuine"]))
        with rec.request():
            rec.op(kind,
                   lambda: lib.vault.unlock(lib.vault.Vault.from_bytes(entry["vault"]), probes,
                                            lib.dlog_codec.KeyFile.from_bytes(entry["key"])),
                   check)
        rec.set_context()


class AttackAnalysis:
    """The researcher path: the README attack sweep, brute force in the
    criterion-7 shape and at the quickstart shape, and BSGS at 32 bits."""

    name = "attack-analysis"
    # run.KERNELS entry: the time goes to interpreted loops at 32 and 64 bits
    kernel = "interp"
    nominal_round_s = 1.1
    nominal_setup_s = 0.4
    R_VALUES = (30, 40, 50)
    T, N = 10, 8
    CLASSICAL_BUDGET = 100
    BRUTE_BUDGET = 100_000

    def __init__(self, seed, tiny):
        self.seed = seed
        self.trials = 500 if tiny else 10_000

    def setup(self, lib):
        rng = _rng(self.name, self.seed, "corpus")
        f32, f64, f1024 = _params(lib, 32), _params(lib, 64), _params(lib, 1024)
        dlog = {}
        for scheme in (lib.vault.Scheme.PER_SEGMENT, lib.vault.Scheme.PARITY):
            for chaff in (2, 3):
                # criterion-7 shape: empty message at 16-bit segments, so
                # n = 12 coefficients and exactly 12 genuine points
                xs, x = [], 1 + rng.randrange(64)
                for _ in range(12):
                    xs.append(x)
                    x += 1 + rng.randrange(64)
                dlog[scheme, chaff] = lib.vault.lock(b"", xs, scheme, f64, chaff_count=chaff,
                                                     delta=0, seed=rng.randrange(1 << 32),
                                                     seg_bits=16)
        A = [1000 * i + 17 + rng.randrange(8) for i in range(40)]
        classical, _ = lib.vault.lock(rng.randbytes(40), A, lib.vault.Scheme.CLASSICAL, f1024,
                                      chaff_count=120, delta=3, seed=rng.randrange(1 << 32))
        return {"f32": f32, "dlog": dlog, "classical": classical}

    def round(self, state, index, rec):
        lib = rec.lib
        attacks = lib.attacks
        f32 = state["f32"]
        rng = _rng(self.name, self.seed, index)
        reports = []
        for j, r in enumerate(self.R_VALUES):
            mc_seed = rng.randrange(1 << 32)
            k = rng.randrange(f32.p - 1)
            target = pow(f32.alpha, k, f32.p)
            # one vault of each chaff count per job keeps job sizes alike
            chaff = (2, 3) if (index * len(self.R_VALUES) + j) % 2 == 0 else (3, 2)
            vaults = [state["dlog"][lib.vault.Scheme.PER_SEGMENT, chaff[0]],
                      state["dlog"][lib.vault.Scheme.PARITY, chaff[1]]]
            exact = Fraction(math.comb(self.T, self.N), math.comb(r, self.N))
            paper = (r / (r - self.T)) ** self.N

            def report_ok(rep, r=r, exact=exact, paper=paper):
                return (rep.exact_prob == exact and rep.published_poly_prob == paper
                        and 0.0 <= rep.empirical_rate <= 1.0 and rep.trials == self.trials)

            with rec.request():
                rep = rec.op("report", lambda r=r, s=mc_seed: attacks.attack_report(
                    r, self.T, self.N, self.trials, s), report_ok, units=_trials)
                reports.append(rep)
                if j == len(self.R_VALUES) - 1:
                    rec.op("sweep", lambda: attacks.sweep_csv(reports),
                           lambda csv: self._sweep_ok(csv, reports))
                for (vault, key) in vaults:
                    rec.op("bruteforce",
                           lambda v=vault, kf=key: attacks.brute_force_unlock_attack(
                               v, kf, max_subsets=self.BRUTE_BUDGET),
                           lambda res: res.succeeded and res.message == b"", units=_subsets)
                    rec.op("bruteforce",
                           lambda v=vault: attacks.brute_force_unlock_attack(
                               v, max_subsets=self.BRUTE_BUDGET),
                           lambda res: not res.succeeded, units=_subsets)
                # chaff x values span the whole field while the genuine
                # ones are small, so today this opens on the first subset
                rec.op("bruteforce",
                       lambda: attacks.brute_force_unlock_attack(
                           state["classical"], max_subsets=self.CLASSICAL_BUDGET),
                       lambda res: not res.succeeded, units=_subsets,
                       known_defect=lambda res: _chaff_leak(attacks, res))
                rec.op("dlog", lambda t=target: attacks.solve_dlog_bsgs(t, f32),
                       lambda got, k=k: got == k)

    def _sweep_ok(self, csv, reports):
        lines = csv.splitlines()
        return (len(reports) == len(self.R_VALUES)
                and lines[0] == "r,t,n,paper_eq30,exact,empirical,stderr,trials"
                and [line.split(",")[0] for line in lines[1:]] == [str(r) for r in self.R_VALUES])


def _chaff_leak(attacks, result):
    """Label the recorded defect: a keyless attack that returned an opened
    vault. A crash or any other result is not this defect."""
    if isinstance(result, attacks.BruteForceResult) and result.succeeded:
        return "chaff-leak"
    return None


def _trials(report):
    return report.trials


def _subsets(result):
    return result.subsets_tried


class Keygen:
    """gen_params at 256 and 384 bits over a fixed seed list, each field
    then written to and read back from a DLFP file."""

    name = "keygen"
    # run.KERNELS entry: the time goes to Miller-Rabin
    kernel = "pow"
    nominal_round_s = 10.0
    nominal_setup_s = 0.025
    LIST = [(256, s) for s in (1, 2, 3, 4)] + [(384, s) for s in (1, 2, 3, 4)]
    TINY_LIST = [(256, 3), (384, 1)]

    def __init__(self, seed, tiny):
        self.seed = seed
        self.jobs = self.TINY_LIST if tiny else self.LIST

    def setup(self, lib):
        return {}

    def round(self, state, index, rec):
        lib = rec.lib
        jobs = list(self.jobs)
        _rng(self.name, self.seed, index).shuffle(jobs)
        for bits, gen_seed in jobs:
            def keygen(bits=bits, gen_seed=gen_seed):
                field = lib.field.gen_params(bits, gen_seed)
                blob = lib.field.params_to_file(field)
                return field, blob, lib.field.params_from_file(blob)

            def generated(out, bits=bits):
                field, _, loaded = out
                p, q = field.p, (field.p - 1) // 2
                return (loaded == field and p.bit_length() == bits and p == 2 * q + 1
                        and _probable_prime(q) and _probable_prime(p)
                        and lib.field.is_primitive_root(field.alpha, p, [2, q]))

            with rec.request():
                rec.op("keygen", keygen, generated)


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _probable_prime(n):
    """Strong probable-prime test to fixed bases, independent of dlfvault."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


WORKLOADS = {w.name: w for w in (EnrollVerify, UnlockChaffHits, AttackAnalysis, Keygen)}
