//! The confidence operators `conf()` and `aconf()` (paper Section V-C).
//!
//! * `conf` — probability of one row's (conjunctive) condition: product
//!   over independent groups of exact CDF integrals where available and
//!   Monte Carlo acceptance estimates elsewhere.
//! * `aconf` — joint probability of a *disjunction* of conditions (the
//!   coalesced condition of duplicate rows after `distinct`, or a
//!   group's rows under grouped `conf()`). Disjuncts that share no
//!   random variable are independent events (Section IV-A(c)), so the
//!   DNF splits into variable-disjoint components combined as
//!   `1 − Π(1 − p_k)`. A single-disjunct component is a row condition
//!   and goes through `conf` — exact whenever its groups have a CDF —
//!   so `aconf` is exact when no two disjuncts share a variable. Only a
//!   component of several variable-sharing disjuncts falls back to
//!   general Monte Carlo integration over its variables.

use std::collections::HashMap;

use pip_core::Result;
use pip_dist::{mix64, rng_from_seed};
use pip_expr::{independent_groups, Assignment, Conjunction, Dnf, UnionFind, VarId};

use pip_ctable::{consistency_check, BoundsMap, Consistency};

use crate::config::SamplerConfig;
use crate::strategy::{exact_group_probability, GroupSampler};

/// `P[condition]` for a conjunctive row condition.
pub fn conf(condition: &Conjunction, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    let (condition, truth) = condition.simplify();
    match truth {
        pip_expr::Truth::False => return Ok(0.0),
        pip_expr::Truth::True => return Ok(1.0),
        pip_expr::Truth::Unknown => {}
    }
    let bounds = if cfg.use_consistency {
        match consistency_check(&condition) {
            Consistency::Inconsistent => return Ok(0.0),
            Consistency::Consistent { bounds, .. } => bounds,
        }
    } else {
        BoundsMap::new()
    };
    let groups = if cfg.use_independence {
        independent_groups(&condition, &[])
    } else {
        vec![pip_expr::VarGroup {
            atoms: condition.atoms().to_vec(),
            vars: condition.variables(),
        }]
    };
    let mut rng = rng_from_seed(mix64(cfg.world_seed ^ site ^ 0xC0FF));
    let mut prob = 1.0;
    for g in groups {
        if g.atoms.is_empty() {
            continue;
        }
        if cfg.use_exact_cdf {
            if let Some(p) = exact_group_probability(&g) {
                prob *= p;
                continue;
            }
        }
        let budget = cfg.max_samples.max(cfg.min_samples).max(1) as u64;
        // Compiled path: the same fixed-budget candidate sequence, drawn
        // through a slot-indexed kernel (and skipped entirely when the
        // sample-block cache already holds this (group, stream) probe).
        if cfg.compile {
            let mut slots = pip_expr::SlotMap::new();
            slots.intern_all(&g.vars);
            if let Some(mut kernel) = crate::tape::GroupKernel::for_group(&g, &bounds, cfg, &slots)
            {
                prob *= crate::blocks::probe_estimate_cached(
                    &mut kernel,
                    &mut rng,
                    budget,
                    slots.len(),
                    cfg,
                    cfg.reuse_blocks,
                )?;
                continue;
            }
        }
        let mut s = GroupSampler::new(g, &bounds, cfg);
        prob *= s.estimate_probability(&mut rng, budget)?;
    }
    Ok(prob)
}

/// `P[φ₁ ∨ … ∨ φₖ]` for the DNF of a distinct group.
///
/// Statically dead disjuncts are pruned first. With
/// `cfg.use_independence`, the live disjuncts then split into components
/// that share no random variable ([`disjunct_components`]); components
/// are independent events, so
/// `P = 1 − Π_k (1 − p_k) = −expm1(Σ_k log1p(−p_k))`. A single-disjunct
/// component is evaluated by [`conf`] (exact CDF where available), a
/// multi-disjunct one by the joint sampler on its own seed stream. A DNF
/// that stays one component — or any DNF with independence off — is one
/// joint estimate under the caller's site, exactly as without the split.
pub fn aconf(dnf: &Dnf, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    if dnf.is_trivially_false() {
        return Ok(0.0);
    }
    if dnf.is_trivially_true() {
        return Ok(1.0);
    }
    let disjuncts = dnf.disjuncts();
    if disjuncts.len() == 1 {
        return conf(&disjuncts[0], cfg, site);
    }
    // Prune statically-dead disjuncts first; re-check triviality.
    let live: Vec<&Conjunction> = disjuncts
        .iter()
        .filter(|d| !matches!(consistency_check(d), Consistency::Inconsistent))
        .collect();
    match live.len() {
        0 => return Ok(0.0),
        1 => return conf(live[0], cfg, site),
        _ => {}
    }
    let components = if cfg.use_independence {
        disjunct_components(&live)
    } else {
        Vec::new()
    };
    if components.len() <= 1 {
        return joint_estimate(&live, cfg, site);
    }
    let mut log_miss = 0.0f64;
    for members in &components {
        // Each component's seed stream derives from its first member's
        // position among the live disjuncts: fixed by the DNF alone.
        let comp_site = site ^ mix64(members[0] as u64 + 1);
        let p = if let [only] = members[..] {
            conf(live[only], cfg, comp_site)?
        } else {
            let part: Vec<&Conjunction> = members.iter().map(|&i| live[i]).collect();
            joint_estimate(&part, cfg, comp_site)?
        };
        log_miss += (-p).ln_1p();
    }
    Ok(-log_miss.exp_m1())
}

/// Partition disjuncts into components that share no random variable,
/// as lists of indices into `disjuncts` (each sorted; components ordered
/// by first member). Union-find over disjuncts, joined through the first
/// disjunct seen mentioning each variable, so the split is linear in the
/// total number of variable occurrences. Like [`independent_groups`], it
/// keys on [`VarId`]: components of one multivariate variable are
/// dependent.
fn disjunct_components(disjuncts: &[&Conjunction]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(disjuncts.len());
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, d) in disjuncts.iter().enumerate() {
        for v in d.variables() {
            let first = *owner.entry(v.key.id).or_insert(i);
            uf.union(first, i);
        }
    }
    let mut slot_of_root = vec![usize::MAX; disjuncts.len()];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for i in 0..disjuncts.len() {
        let root = uf.find(i);
        if slot_of_root[root] == usize::MAX {
            slot_of_root[root] = components.len();
            components.push(Vec::new());
        }
        components[slot_of_root[root]].push(i);
    }
    components
}

/// Monte Carlo `P[φ₁ ∨ … ∨ φₖ]`: draw every variable of the disjuncts
/// jointly from its *unconditioned* distribution and count the worlds
/// satisfying any disjunct.
fn joint_estimate(disjuncts: &[&Conjunction], cfg: &SamplerConfig, site: u64) -> Result<f64> {
    let dnf = Dnf::of(disjuncts.iter().map(|&d| d.clone()).collect());
    let vars = dnf.variables();
    let mut rng = rng_from_seed(mix64(cfg.world_seed ^ site ^ 0xACED));
    let mut a = Assignment::new();
    let n = cfg.max_samples.max(cfg.min_samples).max(1);
    let mut hits = 0usize;
    for _ in 0..n {
        for v in &vars {
            a.set(v.key, v.class.generate(&v.params, &mut rng));
        }
        if dnf.eval(&a)? {
            hits += 1;
        }
    }
    Ok(hits as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_dist::prelude::builtin;
    use pip_dist::special;
    use pip_expr::{atoms, Equation, RandomVar};

    fn normal() -> RandomVar {
        RandomVar::create(builtin::normal(), &[0.0, 1.0]).unwrap()
    }

    #[test]
    fn conf_trivial_cases() {
        let cfg = SamplerConfig::default();
        assert_eq!(conf(&Conjunction::top(), &cfg, 0).unwrap(), 1.0);
        let dead = Conjunction::single(atoms::gt(1.0, 2.0));
        assert_eq!(conf(&dead, &cfg, 0).unwrap(), 0.0);
    }

    #[test]
    fn conf_exact_via_cdf() {
        let y = normal();
        let cond = Conjunction::single(atoms::gt(Equation::from(y), 1.0));
        let cfg = SamplerConfig::default();
        let p = conf(&cond, &cfg, 1).unwrap();
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    #[test]
    fn conf_factorizes_independent_groups() {
        // P[(Y1 > 0) ∧ (Y2 > 1)] = P[Y1>0]·P[Y2>1] exactly.
        let y1 = normal();
        let y2 = normal();
        let cond = Conjunction::of(vec![
            atoms::gt(Equation::from(y1), 0.0),
            atoms::gt(Equation::from(y2), 1.0),
        ]);
        let cfg = SamplerConfig::default();
        let p = conf(&cond, &cfg, 2).unwrap();
        let truth = 0.5 * (1.0 - special::normal_cdf(1.0));
        assert!((p - truth).abs() < 1e-9, "{p} vs {truth}");
    }

    #[test]
    fn conf_monte_carlo_for_cross_variable_atoms() {
        // P[Y1 > Y2] for iid normals = 0.5 — needs sampling.
        let y1 = normal();
        let y2 = normal();
        let cond = Conjunction::single(atoms::gt(Equation::from(y1), Equation::from(y2)));
        let cfg = SamplerConfig::fixed_samples(4000);
        let p = conf(&cond, &cfg, 3).unwrap();
        assert!((p - 0.5).abs() < 0.05, "{p}");
    }

    #[test]
    fn aconf_trivia() {
        let cfg = SamplerConfig::default();
        assert_eq!(aconf(&Dnf::bottom(), &cfg, 0).unwrap(), 0.0);
        assert_eq!(
            aconf(&Dnf::of(vec![Conjunction::top()]), &cfg, 0).unwrap(),
            1.0
        );
    }

    #[test]
    fn aconf_single_disjunct_defers_to_conf() {
        let y = normal();
        let d = Dnf::of(vec![Conjunction::single(atoms::gt(Equation::from(y), 1.0))]);
        let cfg = SamplerConfig::default();
        let p = aconf(&d, &cfg, 4).unwrap();
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    #[test]
    fn aconf_overlapping_disjuncts_not_double_counted() {
        // (Y > 0) ∨ (Y > 1) = (Y > 0): probability 0.5, NOT 0.5 + P[Y>1].
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let cfg = SamplerConfig::fixed_samples(4000);
        let p = aconf(&d, &cfg, 5).unwrap();
        assert!((p - 0.5).abs() < 0.05, "{p}");
    }

    #[test]
    fn aconf_disjoint_disjuncts_add_up() {
        // (Y < -1) ∨ (Y > 1): 2·(1−Φ(1)) ≈ 0.3173.
        let y = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::lt(Equation::from(y.clone()), -1.0)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let cfg = SamplerConfig::fixed_samples(6000);
        let p = aconf(&d, &cfg, 6).unwrap();
        let truth = 2.0 * (1.0 - special::normal_cdf(1.0));
        assert!((p - truth).abs() < 0.05, "{p} vs {truth}");
    }

    #[test]
    fn aconf_prunes_dead_disjuncts() {
        let y = normal();
        let dead = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), 5.0),
            atoms::lt(Equation::from(y.clone()), 3.0),
        ]);
        let live = Conjunction::single(atoms::gt(Equation::from(y), 1.0));
        let d = Dnf::of(vec![dead, live]);
        let cfg = SamplerConfig::default();
        let p = aconf(&d, &cfg, 7).unwrap();
        // Only the live disjunct matters — and it goes through the exact
        // CDF path because pruning leaves a single conjunction.
        assert!((p - (1.0 - special::normal_cdf(1.0))).abs() < 1e-9);
    }

    fn normal_at(mean: f64) -> RandomVar {
        RandomVar::create(builtin::normal(), &[mean, 1.0]).unwrap()
    }

    #[test]
    fn aconf_independent_rows_are_exact() {
        // Grouped conf() over rows `x_i > c`, x_i ~ N(μ_i, 1): the rows
        // share no variable, so P = 1 − Π P(x_i ≤ c) with no sampling.
        let c = 0.75;
        let means = [0.0, 0.5, -1.0, 1.25, 2.0, -0.5];
        let d = Dnf::of(
            means
                .iter()
                .map(|&m| Conjunction::single(atoms::gt(Equation::from(normal_at(m)), c)))
                .collect(),
        );
        let truth = 1.0
            - means
                .iter()
                .map(|m| special::normal_cdf(c - m))
                .product::<f64>();
        for cfg in [
            SamplerConfig::default(),
            SamplerConfig::fixed_samples(50),
            SamplerConfig::default().with_compile(false),
        ] {
            let p = aconf(&d, &cfg, 0).unwrap();
            assert!((p - truth).abs() < 1e-12, "{p} vs {truth}");
        }
    }

    #[test]
    fn aconf_mixed_components() {
        // (Y > 0) ∨ (Y > 1) share Y — one sampled component with P = 0.5;
        // (Z > 1) is independent of it and exact. P = 1 − 0.5·Φ(1).
        let y = normal();
        let z = normal();
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(z), 1.0)),
            Conjunction::single(atoms::gt(Equation::from(y), 1.0)),
        ]);
        let cfg = SamplerConfig::fixed_samples(8000);
        let p = aconf(&d, &cfg, 12).unwrap();
        let truth = 1.0 - 0.5 * special::normal_cdf(1.0);
        assert!((p - truth).abs() < 0.02, "{p} vs {truth}");
        // The split changes nothing but speed and precision: the joint
        // estimator over all three disjuncts agrees within sampling error.
        let mut joint = cfg.clone();
        joint.use_independence = false;
        let q = aconf(&d, &joint, 12).unwrap();
        assert!((q - truth).abs() < 0.03, "{q} vs {truth}");
    }

    #[test]
    fn aconf_splits_a_thousand_disjuncts_quickly() {
        // 1000 independent rows: the split is linear and every component
        // is an exact CDF. The joint sampler would need 10,000 draws of
        // 1000 variables, each checked against up to 1000 disjuncts.
        let n = 1000;
        let d = Dnf::of(
            (0..n)
                .map(|i| {
                    let m = -4.0 + 0.001 * i as f64;
                    Conjunction::single(atoms::gt(Equation::from(normal_at(m)), 0.0))
                })
                .collect(),
        );
        let truth = 1.0
            - (0..n)
                .map(|i| special::normal_cdf(4.0 - 0.001 * i as f64))
                .product::<f64>();
        let t0 = std::time::Instant::now();
        let p = aconf(&d, &SamplerConfig::default(), 3).unwrap();
        let took = t0.elapsed();
        assert!((p - truth).abs() < 1e-12, "{p} vs {truth}");
        assert!(took.as_secs_f64() < 2.0, "1000 disjuncts took {took:?}");
    }

    #[test]
    fn aconf_without_independence_is_the_joint_estimator() {
        // Ablation path: the monolithic estimator, bit for bit what every
        // DNF got before the component split.
        let d = Dnf::of(vec![
            Conjunction::single(atoms::gt(Equation::from(normal_at(0.0)), 0.5)),
            Conjunction::single(atoms::gt(Equation::from(normal_at(0.5)), 1.0)),
            Conjunction::single(atoms::lt(Equation::from(normal_at(-0.25)), -1.5)),
        ]);
        let mut cfg = SamplerConfig::fixed_samples(3000).with_seed(42);
        cfg.use_independence = false;
        let p = aconf(&d, &cfg, 9).unwrap();
        assert_eq!(p.to_bits(), 0x3fe2_6921_735e_e403, "{p}");
        // With the split, the same DNF is exact.
        cfg.use_independence = true;
        let exact =
            1.0 - special::normal_cdf(0.5) * special::normal_cdf(0.5) * special::normal_cdf(1.25);
        assert!((aconf(&d, &cfg, 9).unwrap() - exact).abs() < 1e-12);
    }

    #[test]
    fn multivariate_components_stay_in_one_component() {
        // Two subscripts of one variable are dependent: the split must
        // not treat their disjuncts as independent events.
        let base = normal();
        let (c0, c1) = (base.component(0), base.component(1));
        let other = normal();
        let d = [
            Conjunction::single(atoms::gt(Equation::from(c0), 0.0)),
            Conjunction::single(atoms::gt(Equation::from(other), 0.0)),
            Conjunction::single(atoms::lt(Equation::from(c1), 1.0)),
        ];
        let refs: Vec<&Conjunction> = d.iter().collect();
        assert_eq!(disjunct_components(&refs), vec![vec![0, 2], vec![1]]);
    }
}
