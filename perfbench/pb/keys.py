"""Seeded profile-key streams for the serve workloads.

The program receives only the keys generated here; the seed is a
benchmark argument. Every key is valid at quick scale: SiMRA classes are
drawn only for SK Hynix families and only with N in {2, 4, 8, 16}
(ds-SiMRA-32 has no sandwiched-victim group at quick scale and is answered
``bad-request``, as quick-scale Fig. 13 has no N=32 row).

The mix is stratified: every block of 14 new keys names each family once,
every block of 100 holds exactly the WCDP share, and every block of 10
queries holds exactly the new-key share. The seed picks the order and the
keys; it cannot change how much work a window of queries asks for, which
keeps runs on different seeds comparable.
"""

import bisect
import itertools
import random

FAMILIES = (
    "SK Hynix-A-4Gb", "SK Hynix-A-8Gb", "SK Hynix-C-16Gb", "SK Hynix-D-8Gb",
    "Micron-B-4Gb", "Micron-E-16Gb", "Micron-F-16Gb", "Micron-R-8Gb",
    "Samsung-A-16Gb", "Samsung-B-16Gb", "Samsung-C-4Gb", "Samsung-C-16Gb",
    "Samsung-E-4Gb", "Nanya-C-8Gb",
)
SIMRA_FAMILIES = tuple(f for f in FAMILIES if f.startswith("SK Hynix"))
BASE_CLASSES = ("rh-ds", "rh-ss", "comra-ds", "comra-ss")
SIMRA_CLASSES = ("simra-2", "simra-4", "simra-8", "simra-16")
DATA_PATTERNS = ("0x00", "0x55", "0xaa", "0xff")


def key_text(family, chip, pattern, dp, temp_cc):
    """The canonical key text the server indexes by."""
    return (f"family={family};chip={chip};pattern={pattern};dp={dp};"
            f"temp_cc={temp_cc};aggon_ps=0")


class Deck:
    """Deals ``items`` in a freshly shuffled order, block after block."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.hand = []

    def deal(self):
        if not self.hand:
            self.hand = self.items[:]
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def share_deck(rng, share, block):
    """A deck of ``block`` booleans holding exactly ``share`` of True."""
    k = round(share * block)
    return Deck(rng, [True] * k + [False] * (block - k))


class KeySpace:
    """Draws distinct valid keys from a seeded generator.

    ``chips`` bounds the chip index, ``temps_cc`` is the temperature spread
    and ``wcdp_share`` the share of keys that ask for the four-pattern
    worst-case search instead of one fixed data pattern.
    """

    def __init__(self, rng, chips, temps_cc, wcdp_share):
        self.rng = rng
        self.chips = chips
        self.temps_cc = tuple(temps_cc)
        self.families = Deck(rng, FAMILIES)
        self.wcdp = share_deck(rng, wcdp_share, 100)
        self.issued = set()

    def new_key(self):
        """A key never drawn before from this space."""
        rng = self.rng
        family = self.families.deal()
        wcdp = self.wcdp.deal()
        # WCDP keys stay on the single- and double-row classes, so every
        # four-pattern search costs about the same.
        classes = BASE_CLASSES + (SIMRA_CLASSES if family in SIMRA_FAMILIES and not wcdp else ())
        while True:
            dp = "wcdp" if wcdp else rng.choice(DATA_PATTERNS)
            key = key_text(family, rng.randrange(self.chips), rng.choice(classes), dp,
                           rng.choice(self.temps_cc))
            if key not in self.issued:
                self.issued.add(key)
                return key


def hot_set(seed, params):
    """The serve-hot working set: ``hot_set_size`` distinct keys."""
    space = KeySpace(random.Random(f"hot:{seed}"), params["chips"],
                     params["temps_cc"], params["wcdp_share"])
    return [space.new_key() for _ in range(params["hot_set_size"])]


def hot_stream(seed, keys, zipf_s):
    """Endless draws from ``keys`` with Zipf(s) popularity by position."""
    rng = random.Random(f"hot-stream:{seed}")
    cum = _cumulative([1.0 / rank ** zipf_s for rank in range(1, len(keys) + 1)])
    while True:
        yield keys[_pick(rng, cum, len(cum))]


class Supply:
    """Keys from an iterator, handed out in chunks; the keys a chunk did
    not use go back to the front, so the stream sent is the stream drawn."""

    def __init__(self, keys):
        self.it = iter(keys)
        self.back = []

    def take(self, n):
        out, self.back = self.back[:n], self.back[n:]
        return out + list(itertools.islice(self.it, n - len(out)))

    def give_back(self, keys):
        self.back = list(keys) + self.back


class MixedStream:
    """The serve-mixed key stream: new keys mixed with revisits.

    A new key is one never sent before (a miss); a revisit names a key
    first sent at least ``revisit_gap`` new keys earlier, chosen with
    Zipf(s) popularity over first-appearance order, so early keys stay
    popular and the answer is already in the store (a hit).
    """

    def __init__(self, seed, params, exclude=()):
        self.rng = random.Random(f"mixed:{seed}")
        self.space = KeySpace(random.Random(f"mixed-keys:{seed}"), params["chips"],
                              params["temps_cc"], params["wcdp_share"])
        self.space.issued.update(exclude)
        self.new = share_deck(self.rng, params["new_share"], 10)
        self.zipf_s = params["revisit_zipf_s"]
        self.gap = params["revisit_gap"]
        self.order = []
        self.cum = []

    def next(self):
        """Returns ``(key, is_new)``."""
        eligible = len(self.order) - self.gap
        if not self.new.deal() and eligible > 0:
            while len(self.cum) < eligible:
                rank = len(self.cum) + 1
                self.cum.append((self.cum[-1] if self.cum else 0.0) + rank ** -self.zipf_s)
            return self.order[_pick(self.rng, self.cum, eligible)], False
        key = self.space.new_key()
        self.order.append(key)
        return key, True

    def take(self, count):
        return [self.next() for _ in range(count)]


def _cumulative(weights):
    out, acc = [], 0.0
    for w in weights:
        acc += w
        out.append(acc)
    return out


def _pick(rng, cum, n):
    """Index in ``0..n`` drawn with weights given as cumulative sums."""
    return min(bisect.bisect_left(cum, rng.random() * cum[n - 1], 0, n), n - 1)
