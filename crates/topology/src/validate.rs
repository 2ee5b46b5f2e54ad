//! Topology validation utilities: BFS distances and wiring checks.
//!
//! Used by unit/integration tests and available to downstream users who
//! define their own [`Topology`] implementations.

use crate::Topology;

/// Hop distances from `from` to every router (BFS over wired ports).
pub fn bfs_distances<T: Topology + ?Sized>(topo: &T, from: usize) -> Vec<usize> {
    let n = topo.num_routers();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[from] = 0;
    queue.push_back(from);
    while let Some(r) = queue.pop_front() {
        for port in 0..topo.num_ports() {
            if let Some((nr, _)) = topo.neighbor(r, port) {
                if dist[nr] == usize::MAX {
                    dist[nr] = dist[r] + 1;
                    queue.push_back(nr);
                }
            }
        }
    }
    dist
}

/// Network diameter computed by all-pairs BFS (test-sized networks only).
pub fn compute_diameter<T: Topology + ?Sized>(topo: &T) -> usize {
    (0..topo.num_routers())
        .map(|r| {
            bfs_distances(topo, r)
                .into_iter()
                .filter(|&d| d != usize::MAX)
                .max()
                .unwrap_or(0)
        })
        .max()
        .unwrap_or(0)
}

/// Check that wiring is a clean involution: `neighbor(neighbor(r, p)) ==
/// (r, p)` for every wired port, no self-loops, and port classes agree at
/// both ends.
pub fn check_wiring<T: Topology + ?Sized>(topo: &T) -> Result<(), String> {
    for r in 0..topo.num_routers() {
        for port in 0..topo.num_ports() {
            let Some((nr, np)) = topo.neighbor(r, port) else {
                continue;
            };
            if nr == r {
                return Err(format!("self-loop at router {r} port {port}"));
            }
            if nr >= topo.num_routers() || np >= topo.num_ports() {
                return Err(format!(
                    "out-of-range neighbour ({nr}, {np}) from ({r}, {port})"
                ));
            }
            match topo.neighbor(nr, np) {
                Some((br, bp)) if br == r && bp == port => {}
                other => {
                    return Err(format!(
                        "wiring not involutive: ({r},{port}) -> ({nr},{np}) -> {other:?}"
                    ));
                }
            }
            if topo.port_class(r, port) != topo.port_class(nr, np) {
                return Err(format!(
                    "class mismatch on link ({r},{port}) <-> ({nr},{np})"
                ));
            }
        }
    }
    Ok(())
}

/// Check that the network is connected (every router reachable from 0).
pub fn check_connected<T: Topology + ?Sized>(topo: &T) -> Result<(), String> {
    let dist = bfs_distances(topo, 0);
    match dist.iter().position(|&d| d == usize::MAX) {
        Some(r) => Err(format!("router {r} unreachable from router 0")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, HyperX};

    #[test]
    fn dragonfly_checks_pass() {
        let d = Dragonfly::balanced(2);
        check_wiring(&d).unwrap();
        check_connected(&d).unwrap();
        assert_eq!(compute_diameter(&d), 3);
    }

    #[test]
    fn flatbf_checks_pass() {
        // The 3 × 3 flattened butterfly: the 2-D unit-multiplicity HyperX.
        let t = HyperX::regular(2, 3, 1);
        check_wiring(&t).unwrap();
        check_connected(&t).unwrap();
        assert_eq!(compute_diameter(&t), 2);
    }

    #[test]
    fn bfs_distance_zero_to_self() {
        let d = Dragonfly::balanced(2);
        assert_eq!(bfs_distances(&d, 5)[5], 0);
    }
}
