"""Set-based max-min allocator — test-only.

This is the water-filling loop ``repro.sim.network.Network._maxmin``
replaced, kept as the executable definition of the rates it must compute,
bit for bit: every round intersects each link's member set with the
unfrozen flows, picks the first link (in order of appearance) with the
least capacity left per live flow, freezes its flows at that share and
takes the share from every link they cross, clamping at zero.

Nothing under ``src/`` imports this module.
"""


def maxmin_rates(paths):
    """Max-min fair rates of flows crossing ``paths``.

    ``paths`` holds one tuple of links (anything with a ``capacity``) per
    flow; the result holds one rate per flow, in the same order.
    """
    rates = [0.0] * len(paths)
    unfrozen = set(range(len(paths)))
    link_flows = {}
    for i, links in enumerate(paths):
        for link in links:
            link_flows.setdefault(link, set()).add(i)
    cap_left = {link: link.capacity for link in link_flows}

    while unfrozen:
        best_link = None
        best_share = float("inf")
        for link, members in link_flows.items():
            live = members & unfrozen
            if not live:
                continue
            share = cap_left[link] / len(live)
            if share < best_share:
                best_share = share
                best_link = link
        if best_link is None:
            break
        for i in list(link_flows[best_link] & unfrozen):
            rates[i] = best_share
            unfrozen.discard(i)
            for link in paths[i]:
                cap_left[link] -= best_share
                if cap_left[link] < 0:
                    cap_left[link] = 0.0
    return rates
