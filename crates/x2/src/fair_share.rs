//! The fair-sharing computation.
//!
//! §4.3: in fair-sharing mode the APs *"programmatically coordinate the
//! bare minimum of fair time-frequency sharing of the underlying RF
//! resource... more efficiently achieving an equilibrium with similar
//! fairness characteristics to what WiFi achieves today."*
//!
//! The partition is **max-min fair** (progressive filling): every AP gets
//! its demand if that demand is below the equal share; leftover capacity is
//! redistributed among the still-hungry. This dominates WiFi's DCF outcome
//! on two axes: no airtime is burned on collisions/backoff, and an AP with
//! low demand automatically donates its slack — DCF only approximates the
//! second and pays contention overhead for the first.

/// Max-min fair shares of `total` given per-AP `demands` (same units).
///
/// Properties (property-tested):
/// * Σ shares ≤ total, with equality iff Σ demands ≥ total;
/// * share_i ≤ demand_i;
/// * any AP that does not receive its full demand receives at least as much
///   as every other AP (the max-min property).
pub fn max_min_shares(demands: &[f64], total: f64) -> Vec<f64> {
    let mut shares = Vec::new();
    let mut unsatisfied = Vec::new();
    max_min_shares_into(demands, total, &mut shares, &mut unsatisfied);
    shares
}

/// [`max_min_shares`] writing into caller-owned buffers — the X2 agent
/// recomputes its share on every report tick and on every report that adds
/// a peer or changes one (each `SetupRequest` of the setup storm
/// included), so the hot path reuses its scratch vectors instead of
/// allocating two fresh ones per call. `shares` is cleared and refilled;
/// `unsatisfied` is pure scratch with no meaningful contents afterwards.
/// The floating-point result depends on the order of `demands`, so callers
/// that need reproducible shares pass them in a fixed order (the agent:
/// its own demand first, then its fresh peers by address).
pub fn max_min_shares_into(
    demands: &[f64],
    total: f64,
    shares: &mut Vec<f64>,
    unsatisfied: &mut Vec<usize>,
) {
    let n = demands.len();
    shares.clear();
    unsatisfied.clear();
    if n == 0 {
        return;
    }
    assert!(total >= 0.0);
    assert!(
        demands.iter().all(|&d| d >= 0.0 && d.is_finite()),
        "demands must be finite and non-negative"
    );
    shares.resize(n, 0.0f64);
    unsatisfied.extend(0..n);
    let mut remaining = total;
    loop {
        // Everyone satisfied or nothing left: done.
        if unsatisfied.is_empty() || remaining <= 1e-15 {
            break;
        }
        let equal = remaining / unsatisfied.len() as f64;
        // Satisfy everyone whose residual demand fits under the equal share.
        let mut progressed = false;
        unsatisfied.retain(|&i| {
            let residual = demands[i] - shares[i];
            if residual <= equal + 1e-15 {
                shares[i] += residual;
                remaining -= residual;
                progressed = true;
                false
            } else {
                true
            }
        });
        if !progressed {
            // No one fits: split the remainder equally and finish.
            for &i in unsatisfied.iter() {
                shares[i] += equal;
            }
            break;
        }
    }
}

/// Weighted proportional shares (e.g. by client count) of `total`, capped
/// at each AP's demand, with iterative redistribution of slack.
pub fn weighted_shares(demands: &[f64], weights: &[f64], total: f64) -> Vec<f64> {
    assert_eq!(demands.len(), weights.len());
    let n = demands.len();
    if n == 0 {
        return Vec::new();
    }
    let mut shares = vec![0.0f64; n];
    let mut open: Vec<usize> = (0..n).collect();
    let mut remaining = total;
    while !open.is_empty() && remaining > 1e-15 {
        let wsum: f64 = open.iter().map(|&i| weights[i].max(1e-12)).sum();
        let mut newly_closed = Vec::new();
        for &i in &open {
            let offer = remaining * weights[i].max(1e-12) / wsum;
            let residual = demands[i] - shares[i];
            if residual <= offer + 1e-15 {
                newly_closed.push(i);
            }
        }
        if newly_closed.is_empty() {
            // Everyone can absorb their offer: final split.
            for &i in &open {
                let offer = remaining * weights[i].max(1e-12) / wsum;
                shares[i] += offer;
            }
            break;
        }
        for i in newly_closed {
            let residual = demands[i] - shares[i];
            shares[i] = demands[i];
            remaining -= residual;
            open.retain(|&j| j != i);
        }
    }
    shares
}

/// The equilibrium an N-station WiFi DCF network reaches on the same
/// resource, for comparison in E5: equal shares, but with the contention
/// efficiency factor `eta(n)` burned (collisions + backoff). `eta` is the
/// standard Bianchi-flavoured saturation efficiency, here as the simple
/// fitted form `eta(n) = eta1 * (1 - c)^(n-1)` with per-station collision
/// pressure `c`.
pub fn wifi_equivalent_shares(n: usize, total: f64, eta1: f64, c: f64) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let eta = eta1 * (1.0 - c).powi(n as i32 - 1);
    vec![total * eta / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn equal_demands_split_equally() {
        let s = max_min_shares(&[1.0, 1.0, 1.0, 1.0], 1.0);
        assert!(s.iter().all(|&x| close(x, 0.25)), "{s:?}");
    }

    #[test]
    fn light_user_donates_slack() {
        // AP 0 only wants 10%; the other two split the rest.
        let s = max_min_shares(&[0.1, 1.0, 1.0], 1.0);
        assert!(close(s[0], 0.1));
        assert!(close(s[1], 0.45));
        assert!(close(s[2], 0.45));
    }

    #[test]
    fn undersubscribed_channel_satisfies_everyone() {
        let s = max_min_shares(&[0.2, 0.3, 0.1], 1.0);
        assert!(close(s[0], 0.2) && close(s[1], 0.3) && close(s[2], 0.1));
        assert!(s.iter().sum::<f64>() < 1.0);
    }

    #[test]
    fn cascading_redistribution() {
        // Demands 0.05, 0.15, 1.0, 1.0 of total 1.0:
        // round 1 equal=0.25 → first two satisfied (0.05+0.15);
        // remaining 0.8 over two → 0.4 each.
        let s = max_min_shares(&[0.05, 0.15, 1.0, 1.0], 1.0);
        assert!(close(s[0], 0.05) && close(s[1], 0.15));
        assert!(close(s[2], 0.4) && close(s[3], 0.4));
    }

    #[test]
    fn empty_and_zero_cases() {
        assert!(max_min_shares(&[], 1.0).is_empty());
        let s = max_min_shares(&[0.0, 0.0], 1.0);
        assert!(close(s[0], 0.0) && close(s[1], 0.0));
        let s = max_min_shares(&[1.0, 1.0], 0.0);
        assert!(close(s[0], 0.0) && close(s[1], 0.0));
    }

    #[test]
    fn weighted_by_clients() {
        // AP 1 has 3× the clients; both saturated.
        let s = weighted_shares(&[1.0, 1.0], &[1.0, 3.0], 1.0);
        assert!(close(s[0], 0.25), "{s:?}");
        assert!(close(s[1], 0.75));
    }

    #[test]
    fn weighted_respects_demand_caps() {
        // Heavy-weight AP only wants 0.2: cap binds, light AP takes rest.
        let s = weighted_shares(&[1.0, 0.2], &[1.0, 3.0], 1.0);
        assert!(close(s[1], 0.2), "{s:?}");
        assert!(close(s[0], 0.8), "{s:?}");
    }

    #[test]
    fn fair_share_beats_wifi_equivalent_aggregate() {
        // The E5 headline: same channel, n saturated APs. dLTE fair share
        // delivers the whole channel; DCF burns eta.
        for n in [2usize, 5, 10] {
            let dlte: f64 = max_min_shares(&vec![1.0; n], 1.0).iter().sum();
            let wifi: f64 = wifi_equivalent_shares(n, 1.0, 0.85, 0.07).iter().sum();
            assert!(close(dlte, 1.0));
            assert!(wifi < dlte, "n={n}: wifi {wifi} vs dlte {dlte}");
        }
    }
}
