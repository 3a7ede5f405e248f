"""Per-layer metrics from the spans of a traced run.

A layer is a fuscat module; a span's layer is the prefix of its name.
self time = span duration minus the durations of its direct child spans.
total time of a span name (or a layer) = summed duration of the spans that
have no ancestor of the same name (or layer), so recursion and nesting
within one layer are not counted twice.
"""

from __future__ import annotations


def span_stats(header: dict, cols: dict) -> tuple[dict, dict]:
    """(per span name, per layer) dicts of calls, self_s, total_s and the
    sum and max of the two span attributes."""
    names = header["names"]
    layers = sorted({n.split(".")[0] for n in names})
    layer_of = [layers.index(n.split(".")[0]) for n in names]
    name, start, end, parent = cols["name"], cols["start"], cols["end"], cols["parent"]
    a1, a2 = cols["a1"], cols["a2"]
    count = header["count"]

    dur = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    above_names = [0] * count  # bit k set: an ancestor span has name k
    above_layers = [0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:  # parents are recorded before their children
            child[p] += dur[i]
            above_names[i] = above_names[p] | (1 << name[p])
            above_layers[i] = above_layers[p] | (1 << layer_of[name[p]])

    by_name = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "a1_sum": 0, "a1_max": 0, "a2_max": 0}
               for n in names}
    by_layer = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in layers}
    for i in range(count):
        k = name[i]
        s = by_name[names[k]]
        own = dur[i] - child[i]
        s["calls"] += 1
        s["self_s"] += own
        if not (above_names[i] >> k) & 1:
            s["total_s"] += dur[i]
        s["a1_sum"] += a1[i]
        s["a1_max"] = max(s["a1_max"], a1[i])
        s["a2_max"] = max(s["a2_max"], a2[i])
        lay = by_layer[layers[layer_of[k]]]
        lay["calls"] += 1
        lay["self_s"] += own
        if not (above_layers[i] >> layer_of[k]) & 1:
            lay["total_s"] += dur[i]
    return by_name, by_layer


def calls_per_request(header: dict, cols: dict, span_name: str, requests: list[int]) -> float:
    """Mean number of `span_name` spans over the given request ids."""
    if not requests:
        return 0.0
    k = header["names"].index(span_name)
    wanted = set(requests)
    hits = sum(1 for i in range(header["count"]) if cols["name"][i] == k and cols["request"][i] in wanted)
    return hits / len(requests)


def layer_metrics(header: dict, cols: dict, argvs: list[list[str]]) -> dict[str, float]:
    """Every per-layer metric that the spans determine, by metric name."""
    by_name, by_layer = span_stats(header, cols)
    out: dict[str, float] = {}
    for span_name, s in by_name.items():
        out[f"{span_name}.calls"] = s["calls"]
        out[f"{span_name}.self_s"] = s["self_s"]
        out[f"{span_name}.total_s"] = s["total_s"]
    for layer, s in by_layer.items():
        out[f"{layer}.calls"] = s["calls"]
        out[f"{layer}.self_s"] = s["self_s"]
        out[f"{layer}.total_s"] = s["total_s"]

    norm = by_name["cyclotomic.norm"]
    out["cyclotomic.norm.conjugates"] = norm["a1_sum"]
    out["cyclotomic.norm.phi_max"] = norm["a1_max"]
    out["cyclotomic.norm.result_bits_max"] = norm["a2_max"]
    out["cyclotomic.inverse.conjugates"] = by_name["cyclotomic.inverse"]["a1_sum"]
    hits, misses = header["q_integer_hits"], header["q_integer_misses"]
    out["cyclotomic.q_integer.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["rootsys.alcove_weights"] = by_name["rootsys.enumerate_alcove"]["a1_sum"]
    out["verlinde.qdim.coeff_bits_max"] = by_name["verlinde.qdim"]["a1_max"]
    out["finitegroup.elements_enumerated"] = by_name["finitegroup.from_generators"]["a1_sum"]
    out["finitegroup.classes_split"] = by_name["finitegroup.char_degrees"]["a1_sum"]
    badprimes = [i for i, argv in enumerate(argvs) if argv[:2] == ["gtcat", "badprimes"]]
    out["gtcat.badprimes.double_cosets_per_request"] = calls_per_request(
        header, cols, "finitegroup.double_cosets", badprimes)
    out["trace.spans"] = header["count"]
    return out
