"""Seeded inputs for every workload, with verdicts fixed at generation.

Documents are purchase orders built from :mod:`repro.workloads`
(``make_item`` items inside ``repro.xmltree.dom`` trees).  Every
document or request carries the verdict it must get, derived from how it
was built and never from the code under test: a purchase order is valid
under a target iff ``billTo`` is present and every quantity is below the
target's bound (for ``/cast-with-mods``, the bound is applied after the
modifications).  Premise validity under each pair's source schema holds
by construction.

:func:`properties` reports what the program's behaviour depends on:
document count, byte total and size spread, the invalid share, the
share of bytes under subsumed type pairs (measured with stdlib expat
against the pair's own ``R_sub``), and the share of repeated subtrees.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from xml.parsers import expat

from repro.workloads import purchase_orders as po
from repro.xmltree.dom import Document, element
from repro.xmltree.serializer import serialize

#: Schema texts written for the CLI: name → XSD source.
SCHEMAS = {
    # Experiment 1: billTo optional -> required (quantity < 100 in both).
    "exp1-source": po._po_xsd(billto_optional=True, quantity_max_exclusive=100),
    "exp1-target": po._po_xsd(billto_optional=False, quantity_max_exclusive=100),
    # Experiment 2: quantity < 200 -> < 100 (billTo required in both).
    "exp2-source": po._po_xsd(billto_optional=False, quantity_max_exclusive=200),
    "exp2-target": po._po_xsd(billto_optional=False, quantity_max_exclusive=100),
    # Every leaf tightened: R_sub is empty over the reachable types.
    "zero-target": po._PO_XSD_ZERO_SUBSUMPTION,
}

#: Item-count ladders.  A corpus repeats its ladder in shuffled blocks,
#: so every seed yields the same multiset of sizes and only content,
#: order and which documents are invalid change with the seed.
SKIM_LADDER = po.PAPER_ITEM_COUNTS            # 2 .. 1000 items
WALK_LADDER = (20, 50, 100, 200, 350, 500)    # 20 .. 500 items
DOM_LADDER = (20, 50, 100, 200, 350, 500)

INVALID_SHARE = 0.10
#: batch-dom: the share of addresses and item lines drawn from a shared
#: pool (a returning customer, a catalogue reorder) rather than new, so
#: about half of the subtrees repeat and reach the verdict memo, and the
#: other half are walked.
REPEAT_SHARE = 0.50
#: batch-dom's returning customers and catalogue lines.  Both are small
#: against the ~15k reorder lines each of the two workers meets in a
#: corpus, so the memo misses each only once and the hit ratio follows
#: REPEAT_SHARE rather than these sizes.
CUSTOMERS = 10
CATALOGUE = 50


class Order:
    """A generated purchase order: its item parameters and verdict
    inputs, kept beside the tree so verdicts and subtree keys never
    come from parsing the output back."""

    def __init__(self, ship, bill, items):
        self.ship = ship              # customer key
        self.bill = bill              # customer key or None
        self.items = items            # [(product index, quantity)]

    def tree(self) -> Document:
        children = [po._address("shipTo", self.ship)]
        if self.bill is not None:
            children.append(po._address("billTo", self.bill))
        children.append(element("items", *(
            po.make_item(index, quantity=quantity)
            for index, quantity in self.items
        )))
        return Document(element("purchaseOrder", *children))

    def valid_under(self, bound: int, quantities=None) -> bool:
        quantities = quantities or [q for _, q in self.items]
        return self.bill is not None and max(quantities) < bound

    def subtree_keys(self):
        """One key per complex subtree below the root; equal keys mean
        identical subtrees."""
        yield ("shipTo", self.ship)
        if self.bill is not None:
            yield ("billTo", self.bill)
        yield ("items", tuple(self.items))
        for item in self.items:
            yield ("item",) + item


def _ladder(rng: random.Random, ladder, count: int) -> list[int]:
    sizes: list[int] = []
    while len(sizes) < count:
        block = list(ladder)
        rng.shuffle(block)
        sizes.extend(block)
    return sizes[:count]


def _spoil(rng: random.Random, items, low: int, high: int):
    """Move the last item's quantity into ``[low, high)``.  Validators
    stop at the first violation; with it last, an invalid order costs
    as much to verdict as a valid one of its size, so which orders are
    invalid does not change a corpus's work from seed to seed."""
    items = list(items)
    items[-1] = (items[-1][0], rng.randrange(low, high))
    return items


# -- batch corpora -------------------------------------------------------------


def skim_orders(rng: random.Random, count: int) -> list[Order]:
    """Experiment 1 (billTo optional -> required): ~10% lack billTo."""
    orders = []
    for n in _ladder(rng, SKIM_LADDER, count):
        items = [(i, rng.randrange(1, 100)) for i in range(n)]
        bill = None if rng.random() < INVALID_SHARE else "B"
        orders.append(Order("S", bill, items))
    return orders


def walk_orders(rng: random.Random, count: int) -> list[Order]:
    """Zero-subsumption pair: unique content everywhere; ~10% carry one
    quantity in [100, 200)."""
    orders = []
    serial = rng.randrange(10_000)
    for doc, n in enumerate(_ladder(rng, WALK_LADDER, count)):
        items = [(serial + i, rng.randrange(1, 100)) for i in range(n)]
        serial += n
        if rng.random() < INVALID_SHARE:
            items = _spoil(rng, items, 100, 200)
        orders.append(Order(f"Ship{doc}", f"Bill{doc}", items))
    return orders


def dom_orders(rng: random.Random, count: int) -> list[Order]:
    """Experiment 2 (quantity < 200 -> < 100) where each address and
    item line repeats an earlier one with probability REPEAT_SHARE (a
    returning customer, a catalogue reorder) and is new otherwise; ~10%
    carry one quantity in [100, 200)."""
    catalogue = [(index, rng.randrange(1, 100)) for index in range(CATALOGUE)]
    serial = CATALOGUE

    def customer():
        nonlocal serial
        if rng.random() < REPEAT_SHARE:
            return f"C{rng.randrange(CUSTOMERS)}"
        serial += 1
        return f"N{serial}"

    def line():
        nonlocal serial
        if rng.random() < REPEAT_SHARE:
            return rng.choice(catalogue)
        serial += 1
        return (serial, rng.randrange(1, 100))

    orders = []
    for n in _ladder(rng, DOM_LADDER, count):
        items = [line() for _ in range(n)]
        if rng.random() < INVALID_SHARE:
            items = _spoil(rng, items, 100, 200)
        orders.append(Order(customer(), customer(), items))
    return orders


def probe_order() -> Order:
    """The fixed 2-item valid order of the set-up probe."""
    return Order("S", "B", [(0, 1), (1, 2)])


def write_corpus(directory: str, orders, bound: int) -> list[dict]:
    """Write one pretty-printed file per order (as the paper's inputs
    were); returns ``[{path, bytes, valid, data}]``."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for index, order in enumerate(orders):
        path = os.path.join(directory, f"po-{index:05d}.xml")
        data = serialize(order.tree(), indent="  ",
                         xml_declaration=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)
        written.append(
            {"path": path, "bytes": len(data),
             "valid": order.valid_under(bound), "data": data}
        )
    return written


def write_schemas(directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in SCHEMAS.items():
        paths[name] = os.path.join(directory, f"{name}.xsd")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    return paths


# -- serve-mix requests ----------------------------------------------------------


#: Route → (share of requests, pair name).
MIX = (
    ("/cast", 0.60, "po-exp2"),
    ("/validate", 0.15, "po-exp2"),
    ("/cast-with-mods", 0.15, "po-exp2"),
    ("/cast-chain", 0.10, "po-chain"),
)
SERVE_POOL = 160    # documents per pool
CHAIN_TRIP_SHARE = 0.20


def _serve_orders(rng: random.Random, count: int, *, chain: bool):
    """``count`` orders of 5..100 items, sizes evenly spread so every
    seed's pool has the same size multiset."""
    sizes = [5 + 95 * doc // (count - 1) for doc in range(count)]
    rng.shuffle(sizes)
    orders = []
    for doc, n in enumerate(sizes):
        items = [(rng.randrange(1000), rng.randrange(1, 100))
                 for _ in range(n)]
        bill = f"Bill{doc}"
        if chain:
            # Premise: valid under the chain's first schema (billTo
            # optional, quantity < 400); ~20% trip a later hop.
            if rng.random() < CHAIN_TRIP_SHARE:
                if rng.random() < 0.5:
                    bill = None
                else:
                    items = _spoil(rng, items, 100, 400)
        elif rng.random() < INVALID_SHARE:
            items = _spoil(rng, items, 100, 200)
        orders.append(Order(f"Ship{doc}", bill, items))
    return orders


def _passes(rng: random.Random, count: int):
    while True:
        order = list(range(count))
        rng.shuffle(order)
        yield from order


class Request:
    __slots__ = ("route", "prefix", "valid", "size")

    def __init__(self, route, payload, valid, size):
        self.route = route
        # The body is this prefix plus the request id and a closing
        # brace, so sending needs no per-request JSON encoding.
        text = json.dumps(payload)
        self.prefix = (text[:-1] + ', "rid": ').encode("utf-8")
        self.valid = valid
        self.size = size

    def body(self, rid: int) -> bytes:
        return self.prefix + str(rid).encode("ascii") + b"}"


def serve_requests(seed: int, count: int):
    """``count`` requests in send order, plus the documents behind
    them (for :func:`properties`)."""
    rng = random.Random(seed)
    orders = _serve_orders(rng, SERVE_POOL, chain=False)
    chain_orders = _serve_orders(rng, SERVE_POOL // 2, chain=True)
    texts = [serialize(o.tree()) for o in orders]
    chain_texts = [serialize(o.tree()) for o in chain_orders]
    routes = [route for route, _, _ in MIX]
    weights = [share for _, share, _ in MIX]
    pairs = {route: pair for route, _, pair in MIX}
    requests = []
    used = []
    # Each pool is walked in a seeded order, every document once per
    # pass, so the bytes a run sends depend little on the seed.
    plain_next = _passes(rng, len(orders))
    chain_next = _passes(rng, len(chain_orders))
    for _ in range(count):
        route = rng.choices(routes, weights)[0]
        payload = {"pair": pairs[route]}
        if route == "/cast-chain":
            at = next(chain_next)
            order, text = chain_orders[at], chain_texts[at]
        else:
            at = next(plain_next)
            order, text = orders[at], texts[at]
        valid = order.valid_under(100)
        payload["xml"] = text
        if route == "/cast-with-mods":
            quantities = [q for _, q in order.items]
            mods = []
            for at_item in rng.sample(range(len(quantities)),
                                      rng.randint(1, 3)):
                value = (rng.randrange(100, 200) if rng.random() < 0.05
                         else rng.randrange(1, 100))
                quantities[at_item] = value
                # Dewey: root children are shipTo, billTo, items; an
                # item's second child is quantity, whose text is child 0.
                mods.append({"op": "replace-text",
                             "path": f"2.{at_item}.1.0",
                             "value": str(value)})
            payload["mods"] = mods
            valid = order.valid_under(100, quantities)
        requests.append(Request(route, payload, valid, len(text)))
        used.append((order, text.encode("utf-8")))
    return requests, used


# -- input properties ----------------------------------------------------------

SAMPLE = 24


def subsumed_bytes(pair, data: bytes) -> int:
    """Bytes of ``data`` inside elements whose (source, target) type
    pair is in ``R_sub`` — the part a skim-capable cast need not read.
    Found with stdlib expat and the pair's own type assignment."""
    parser = expat.ParserCreate()
    stack: list = []
    state = {"depth": 0, "start": 0, "total": 0}

    def start(name, _attrs):
        if state["depth"]:
            state["depth"] += 1
            return
        if stack:
            src, tgt = stack[-1]
            src = src and pair.source.child_type(src, name)
            tgt = tgt and pair.target.child_type(tgt, name)
        else:
            src = pair.source.root_type(name)
            tgt = pair.target.root_type(name)
        stack.append((src, tgt))
        if src and tgt and pair.is_subsumed(src, tgt):
            state["depth"] = 1
            state["start"] = parser.CurrentByteIndex

    def end(name):
        if state["depth"]:
            state["depth"] -= 1
            if state["depth"]:
                return
            state["total"] += (
                parser.CurrentByteIndex + len(name) + 3 - state["start"]
            )
        stack.pop()

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.Parse(data, True)
    return state["total"]


def properties(pair, docs) -> dict:
    """``docs``: ``[(order, utf-8 bytes, valid)]`` in processing order."""
    sizes = [len(data) for _, data, _ in docs]
    total = sum(sizes)
    seen: set = set()
    subtrees = repeated = 0
    for order, _, _ in docs:
        for key in order.subtree_keys():
            subtrees += 1
            if key in seen:
                repeated += 1
            seen.add(key)
    # Expat callbacks cost ~10 µs per element, so the subsumed share is
    # measured on an evenly spaced sample of at most SAMPLE documents.
    sample = docs[:: max(1, len(docs) // SAMPLE)]
    under = sum(subsumed_bytes(pair, data) for _, data, _ in sample)
    sampled = sum(len(data) for _, data, _ in sample)
    return {
        "documents": len(docs),
        "bytes": total,
        "size_bytes": {
            "min": min(sizes),
            "median": int(statistics.median(sizes)),
            "max": max(sizes),
        },
        "invalid_share": round(
            sum(1 for *_, valid in docs if not valid) / len(docs), 4
        ),
        "subsumed_byte_share": round(under / sampled, 4),
        "repeated_subtree_share": round(repeated / subtrees, 4),
    }
