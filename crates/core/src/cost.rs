//! Datacenter economics of oversubscription.
//!
//! The paper motivates POLCA economically: "it improves power
//! efficiency, reduces costs through fewer datacenters, and helps to
//! promptly meet the demand" (§1), because "building new datacenters is
//! expensive; and crucially, it takes a long time" (§1, \[7\]). This
//! module quantifies that: the capital value of the server capacity
//! oversubscription unlocks, and the energy bill of a simulated run.

use polca_cluster::RowConfig;
use polca_obs::EnergyLedger;

use crate::experiment::PolicyOutcome;

/// Cost-model parameters, in line with the warehouse-scale literature
/// the paper cites (Barroso et al. \[7\]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CostModel {
    /// Capital cost of datacenter power capacity, USD per megawatt of
    /// critical load (construction + power/cooling infrastructure).
    pub capex_per_mw_usd: f64,
    /// Power usage effectiveness: facility power / IT power.
    pub pue: f64,
    /// Electricity price, USD per kWh.
    pub energy_price_per_kwh_usd: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            capex_per_mw_usd: 10_000_000.0,
            pue: 1.25,
            energy_price_per_kwh_usd: 0.08,
        }
    }
}

/// The value statement for one oversubscribed row.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OversubscriptionValue {
    /// Extra servers hosted without new power capacity.
    pub extra_servers: usize,
    /// Power capacity (MW of critical load) that would otherwise have
    /// had to be built to host those servers at their rated draw.
    pub avoided_capacity_mw: f64,
    /// Capital expenditure avoided, USD.
    pub avoided_capex_usd: f64,
}

impl CostModel {
    /// Values hosting `added_fraction` more servers in `row` without new
    /// capacity: the avoided build-out is the rated power of the extra
    /// servers, scaled by PUE (facility overhead would have been built
    /// too).
    ///
    /// # Panics
    ///
    /// Panics if `added_fraction` is negative.
    pub fn oversubscription_value(
        &self,
        row: &RowConfig,
        added_fraction: f64,
    ) -> OversubscriptionValue {
        assert!(added_fraction >= 0.0, "added fraction cannot be negative");
        let extra_servers = row
            .clone()
            .with_added_servers(added_fraction)
            .total_servers()
            - row.total_servers();
        let avoided_it_watts = extra_servers as f64 * row.server_spec.provisioned_watts;
        let avoided_capacity_mw = avoided_it_watts * self.pue / 1e6;
        OversubscriptionValue {
            extra_servers,
            avoided_capacity_mw,
            avoided_capex_usd: avoided_capacity_mw * self.capex_per_mw_usd,
        }
    }

    /// The energy consumed by a run, in kWh (IT energy × PUE).
    pub fn energy_kwh(&self, outcome: &PolicyOutcome, row: &RowConfig, days: f64) -> f64 {
        let mean_watts = outcome.mean_utilization * row.provisioned_watts();
        mean_watts * self.pue * days * 24.0 / 1000.0
    }

    /// The electricity bill of a run, in USD.
    pub fn energy_cost_usd(&self, outcome: &PolicyOutcome, row: &RowConfig, days: f64) -> f64 {
        self.energy_kwh(outcome, row, days) * self.energy_price_per_kwh_usd
    }

    /// Energy per completed request in watt-hours — the power-efficiency
    /// metric oversubscription improves (more work amortizes the idle
    /// and facility overhead). `None` when no request completed.
    ///
    /// With a non-empty polca-energy `ledger` this is *measured*: the
    /// ledger's integrated facility energy over completed requests. The
    /// ledger already applied its own (possibly per-datacenter) PUE, so
    /// this model's [`pue`](CostModel::pue) plays no part and facility
    /// overhead is never counted twice.
    ///
    /// Without one it is the *aggregate estimate*: the row's mean draw
    /// (`mean_utilization` × provisioned power over `days`) — hot-idle
    /// floor, idle servers and the PUE overhead included — spread
    /// evenly across completed requests. The polca-req ledger
    /// (`ReqRecord::joules`) is the *attributed* view: each request is
    /// charged only the busy power of the iterations it rode. So
    /// attributed ≤ measured ≤ estimate (see the
    /// `aggregate_energy_estimator_bounds_the_req_ledger` test in
    /// `tests/req_trace.rs`).
    pub fn energy_per_request_wh(
        &self,
        ledger: Option<&EnergyLedger>,
        mean_utilization: f64,
        completed: u64,
        row: &RowConfig,
        days: f64,
    ) -> Option<f64> {
        if completed == 0 {
            return None;
        }
        let facility_wh = match ledger {
            Some(ledger) if !ledger.is_empty() => ledger.site.facility_wh,
            _ => mean_utilization * row.provisioned_watts() * self.pue * days * 24.0,
        };
        Some(facility_wh / completed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{OversubscriptionStudy, PolicyKind};

    #[test]
    fn thirty_percent_on_the_paper_row_avoids_a_megawatt_scale_buildout() {
        let model = CostModel::default();
        let row = RowConfig::paper_inference_row();
        let value = model.oversubscription_value(&row, 0.30);
        assert_eq!(value.extra_servers, 12);
        // 12 × 6.5 kW × 1.25 PUE ≈ 97.5 kW ⇒ ~ $1M of avoided capex per row.
        assert!((value.avoided_capacity_mw - 0.0975).abs() < 0.001);
        assert!(value.avoided_capex_usd > 900_000.0);
    }

    #[test]
    fn zero_added_servers_is_worth_nothing() {
        let model = CostModel::default();
        let value = model.oversubscription_value(&RowConfig::paper_inference_row(), 0.0);
        assert_eq!(value.extra_servers, 0);
        assert_eq!(value.avoided_capex_usd, 0.0);
    }

    #[test]
    fn oversubscription_improves_energy_per_request() {
        let mut study = OversubscriptionStudy::quick_demo(5);
        let days = study.days();
        let row = study.row().clone();
        let model = CostModel::default();
        let base = study.run(PolicyKind::NoCap, 0.0, 1.0);
        let over = study.run(PolicyKind::Polca, 0.30, 1.0);
        let epr = |o: &crate::experiment::PolicyOutcome, row: &RowConfig| {
            model
                .energy_per_request_wh(None, o.mean_utilization, o.counts.1, row, days)
                .unwrap()
        };
        let base_epr = epr(&base, &row);
        let over_epr = epr(&over, &row.clone().with_added_servers(0.30));
        // More requests amortize the hot-idle floor: energy per request
        // improves (or at worst stays flat).
        assert!(over_epr <= base_epr * 1.02, "{over_epr} vs {base_epr}");
        // And the bill reflects actual consumption.
        assert!(model.energy_cost_usd(&over, &row, days) > 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_fraction_rejected() {
        let _ =
            CostModel::default().oversubscription_value(&RowConfig::paper_inference_row(), -0.1);
    }

    fn ledger_with_facility_wh(facility_wh: f64) -> EnergyLedger {
        EnergyLedger::from_rows(&[polca_obs::RowEnergy {
            row: 0,
            pdu: 0,
            dc: 0,
            pue: 1.25,
            horizon_s: 3600.0,
            it_wh: facility_wh / 1.25,
            busy_wh: facility_wh / 2.0,
            facility_wh,
            co2e_g: 0.0,
            wh_low: 0.0,
            wh_high: facility_wh / 1.25,
            pool_wh: vec![("aggregated", facility_wh / 1.25)],
            tokens_low: 0,
            tokens_high: 100,
            samples: Vec::new(),
        }])
    }

    #[test]
    fn measured_energy_per_request_replaces_the_estimator() {
        let model = CostModel::default();
        let row = RowConfig::paper_inference_row();
        let ledger = ledger_with_facility_wh(500.0);
        let empty = EnergyLedger::from_rows(&[]);
        let epr =
            |ledger, completed| model.energy_per_request_wh(ledger, 0.8, completed, &row, 1.0);
        // With a ledger attached the measured value is reported; an
        // empty or absent ledger falls back to the estimator.
        let measured = epr(Some(&ledger), 50).unwrap();
        assert_eq!(measured, 10.0);
        let estimated = epr(None, 50).unwrap();
        assert_eq!(epr(Some(&empty), 50), Some(estimated));
        // 0.8 × 40 servers × 6.5 kW × 1.25 PUE × 24 h over 50 requests.
        let expected = 0.8 * row.provisioned_watts() * 1.25 * 24.0 / 50.0;
        assert!((estimated - expected).abs() < 1e-9 * expected);
        assert_eq!(epr(Some(&ledger), 0), None);
        assert_eq!(epr(None, 0), None);
        // The estimator spreads the full mean draw (idle floor + PUE)
        // over requests, so it dominates any realistic measured value.
        assert!(estimated > measured);
    }
}
