"""PNML subset reader/writer for accepting labeled Petri nets.

Supported elements: net / page / place / transition / arc. A transition's
label comes from its name text; a missing or empty name means silent. An
arc may carry an inscription of 1; a larger weight, or a second arc between
the same two nodes, is refused, as the nets hold neither. The
initial marking is read from initialMarking texts. Final markings are not
part of core PNML: a <finalmarkings> block (as written by common process
mining tools, possibly wrapped in <toolspecific>) is used when present,
otherwise a ``<model>.finalmarking.json`` sidecar next to the file, and
otherwise the final marking is empty.

Serialization is deterministic: ids are emitted in sorted order, so equal
nets produce byte-identical documents.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

from .petri import SILENT, LabeledPetriNet, Marking


class PnmlError(ValueError):
    """Malformed or unsupported PNML input."""


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _first(element: ET.Element, name: str) -> ET.Element | None:
    for child in element.iter():
        if _local(child.tag) == name:
            return child
    return None


def _name_text(element: ET.Element) -> str:
    for child in element:
        if _local(child.tag) == "name":
            text = _first(child, "text")
            if text is not None and text.text and text.text.strip():
                return text.text.strip()
    return SILENT


def _token_count(raw: str, where: str) -> int:
    try:
        count = int(raw.strip())
    except ValueError as exc:
        raise PnmlError(f"bad token count {raw!r} in {where}") from exc
    if count < 0:
        raise PnmlError(f"negative token count in {where}")
    return count


def _marking_count(element: ET.Element, wrapper: str) -> int:
    for child in element:
        if _local(child.tag) == wrapper:
            text = _first(child, "text")
            if text is None or text.text is None:
                raise PnmlError(f"{wrapper} without a token count in {element.get('id')!r}")
            return _token_count(text.text, repr(element.get("id")))
    return 0


def _inscription(arc: ET.Element) -> str:
    """The arc's inscription text, stripped; "1" when it has none."""
    for child in arc:
        if _local(child.tag) == "inscription":
            text = _first(child, "text")
            return "" if text is None or text.text is None else text.text.strip()
    return "1"


def parse_pnml(data: bytes | str) -> tuple[LabeledPetriNet, Marking, Marking]:
    """Parse one net out of a PNML document."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise PnmlError(f"malformed XML: {exc}") from exc
    except (LookupError, UnicodeEncodeError) as exc:  # unknown declared encoding, lone surrogates
        raise PnmlError(f"bad text encoding: {exc}") from exc
    net = root if _local(root.tag) == "net" else _first(root, "net")
    if net is None:
        raise PnmlError("document contains no <net> element")

    places: dict[str, int] = {}
    transitions: dict[str, str] = {}
    arcs: dict[tuple[str, str], str | None] = {}  # (source, target) -> arc id
    for element in net.iter():
        kind = _local(element.tag)
        if kind == "place":
            if element.get("idref") and not element.get("id"):
                continue  # final-marking reference, handled below
            pid = element.get("id")
            if not pid:
                raise PnmlError("place without id")
            if pid in places or pid in transitions:
                raise PnmlError(f"duplicate node id {pid!r} (place)")
            places[pid] = _marking_count(element, "initialMarking")
        elif kind == "transition":
            tid = element.get("id")
            if not tid:
                raise PnmlError("transition without id")
            if tid in places or tid in transitions:
                raise PnmlError(f"duplicate node id {tid!r} (transition)")
            transitions[tid] = _name_text(element)
        elif kind == "arc":
            aid, src, dst = element.get("id"), element.get("source"), element.get("target")
            if not src or not dst:
                raise PnmlError(f"arc {aid!r} missing source/target")
            # the nets hold unit arcs and at most one arc per node pair
            weight = _inscription(element)
            if weight != "1":
                raise PnmlError(f"arc {aid!r} has inscription {weight!r}; only unit arcs are supported")
            if (src, dst) in arcs:
                raise PnmlError(f"arc {aid!r} repeats arc {arcs[src, dst]!r} from {src!r} to {dst!r}")
            arcs[src, dst] = aid

    final_counts: dict[str, int] = {}
    finals = _first(net, "finalmarkings")
    if finals is not None:
        marking = _first(finals, "marking")
        if marking is not None:
            for ref in marking:
                if _local(ref.tag) != "place":
                    continue
                pid = ref.get("idref")
                if pid not in places:
                    raise PnmlError(f"final marking references unknown place {pid!r}")
                text = _first(ref, "text")
                if text is None or not text.text:
                    continue
                count = _token_count(text.text, f"final marking of {pid!r}")
                if count:
                    final_counts[pid] = count

    try:
        parsed = LabeledPetriNet(
            places=places, transitions=transitions, arcs=arcs, labels=transitions
        )
    except ValueError as exc:
        raise PnmlError(str(exc)) from exc
    initial = Marking({p: c for p, c in places.items() if c})
    return parsed, initial, Marking(final_counts)


def parse_pnml_file(path: Path | str) -> tuple[LabeledPetriNet, Marking, Marking]:
    """Parse a PNML file, consulting the final-marking sidecar if needed."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise PnmlError(f"cannot read {path}: {exc}") from exc
    net, initial, final = parse_pnml(data)
    if not final:
        sidecar = path.with_suffix(".finalmarking.json")
        if sidecar.exists():
            try:
                counts = json.loads(sidecar.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
                raise PnmlError(f"cannot read sidecar {sidecar.name}: {exc}") from exc
            if not isinstance(counts, dict):
                raise PnmlError(f"sidecar {sidecar.name} must be a JSON object of place counts")
            unknown = set(counts) - net.places
            if unknown:
                raise PnmlError(f"sidecar references unknown places: {sorted(unknown)}")
            final = Marking(
                {p: _token_count(str(c), f"sidecar place {p!r}") for p, c in counts.items()}
            )
    return net, initial, final


def write_pnml(net: LabeledPetriNet, initial: Marking, final: Marking) -> bytes:
    """Serialize deterministically; parse_pnml(write_pnml(...)) round-trips."""
    root = ET.Element("pnml")
    net_el = ET.SubElement(root, "net", id="net1", type="http://www.pnml.org/version-2009/grammar/ptnet")
    page = ET.SubElement(net_el, "page", id="page1")
    for pid in sorted(net.places):
        place = ET.SubElement(page, "place", id=pid)
        tokens = initial.get(pid)
        if tokens:
            marking = ET.SubElement(place, "initialMarking")
            ET.SubElement(marking, "text").text = str(tokens)
    for tid in sorted(net.transitions):
        transition = ET.SubElement(page, "transition", id=tid)
        label = net.label(tid)
        if label != SILENT:
            name = ET.SubElement(transition, "name")
            ET.SubElement(name, "text").text = label
    for k, (src, dst) in enumerate(sorted(net.arcs)):
        ET.SubElement(page, "arc", id=f"a{k}", source=src, target=dst)
    if final:
        finals = ET.SubElement(net_el, "finalmarkings")
        marking = ET.SubElement(finals, "marking")
        for pid, count in final.counts:
            ref = ET.SubElement(marking, "place", idref=pid)
            ET.SubElement(ref, "text").text = str(count)
    ET.indent(root)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
