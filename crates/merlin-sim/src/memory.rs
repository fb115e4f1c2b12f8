//! Memory planning: where each array lives and how it is banked.
//!
//! Mirrors the Merlin Compiler's automated memory optimizations (§2.3): small
//! interface arrays are cached into on-chip buffers with a burst transfer,
//! large ones stay in DDR unless a `tile` pragma creates a per-tile cache,
//! and on-chip arrays are partitioned into banks to feed unrolled compute.

use crate::cost::mem;
use crate::walk::visit_statements;
use design_space::{DesignPoint, DesignSpace};
use hls_ir::{AccessPattern, ArrayId, ArrayKind, Kernel, LoopId};

/// Where an array is placed by the Merlin transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Lives on-chip (local scratch).
    OnChip,
    /// Interface array fully cached on-chip with a one-time burst transfer.
    Cached {
        /// Cycles for the initial (and, for outputs, final) burst.
        transfer_cycles: u64,
    },
    /// Interface array cached tile-by-tile under a tiled loop.
    TiledCache {
        /// The tiled loop driving the cache.
        tile_loop: LoopId,
        /// Burst cycles per tile.
        per_tile_transfer: u64,
        /// Number of tiles (outer trip count of the tiled loop).
        num_tiles: u64,
    },
    /// Stays in DDR; every access pays bus latency.
    Ddr,
}

/// Planned placement and banking of one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPlan {
    /// Placement class.
    pub placement: Placement,
    /// On-chip banks required to feed the unrolled compute (1 if in DDR).
    pub banks: u64,
    /// 18Kb BRAM units consumed.
    pub brams: u64,
}

/// Memory plan for every array of a kernel under one design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    plans: Vec<ArrayPlan>,
}

impl MemoryPlan {
    /// Plan of one array.
    pub fn plan(&self, id: ArrayId) -> &ArrayPlan {
        &self.plans[id.0]
    }

    /// All plans, indexed by [`ArrayId`].
    pub fn plans(&self) -> &[ArrayPlan] {
        &self.plans
    }

    /// Total BRAM units across all arrays.
    pub fn total_brams(&self) -> u64 {
        self.plans.iter().map(|p| p.brams).sum()
    }

    /// Largest banking factor of any array.
    pub fn max_banks(&self) -> u64 {
        self.plans.iter().map(|p| p.banks).max().unwrap_or(1)
    }
}

fn burst_cycles(elems: u64, elem_bits: u64) -> u64 {
    let per_beat = (mem::BUS_BITS / elem_bits.max(1)).max(1);
    elems.div_ceil(per_beat) + mem::BURST_SETUP
}

fn brams_for_bits(bits: u64) -> u64 {
    bits.div_ceil(18 * 1024).max(1)
}

/// Builds the memory plan for a kernel under a design point.
pub fn plan_memory(kernel: &Kernel, space: &DesignSpace, point: &DesignPoint) -> MemoryPlan {
    let n = kernel.arrays().len();
    let mut banks = vec![1u64; n];
    // Innermost enclosing tiled loop per DDR array, and the per-tile element
    // footprint driven by that loop.
    let mut tile_info: Vec<Option<(LoopId, u64, u64)>> = vec![None; n];

    visit_statements(kernel, space, point, |frames, stmt| {
        for access in stmt.accesses() {
            let ai = access.array.0;
            // Banking requirement: concurrent replicas whose index actually
            // moves with the replicated loops.
            let need: u64 = match &access.pattern {
                AccessPattern::Affine { .. } => frames
                    .iter()
                    .map(|fr| {
                        if access.pattern.stride_of(&fr.label).unwrap_or(0) != 0 {
                            fr.factor
                        } else {
                            1
                        }
                    })
                    .product(),
                AccessPattern::Indirect | AccessPattern::Uniform => 1,
            };
            banks[ai] = banks[ai].max(need);

            // Tile caching: the innermost enclosing frame with tile > 1.
            if let Some((pos, fr)) =
                frames.iter().enumerate().rev().find(|(_, fr)| fr.tile > 1)
            {
                // Elements of this array touched by one iteration of the
                // tiled loop: trips of the loops below it whose stride is
                // non-zero for this access.
                let below: u64 = frames[pos + 1..]
                    .iter()
                    .filter(|f2| access.pattern.stride_of(&f2.label).unwrap_or(0) != 0)
                    .map(|f2| f2.trip)
                    .product();
                let footprint = fr.tile * below.max(1);
                let entry = &mut tile_info[ai];
                match entry {
                    Some((_, fp, _)) => *fp = (*fp).max(footprint),
                    None => *entry = Some((fr.loop_id, footprint, fr.trip / fr.tile.max(1))),
                }
            }
        }
    });

    let plans = kernel
        .arrays()
        .iter()
        .enumerate()
        .map(|(i, arr)| {
            let elem_bits = u64::from(arr.elem().bit_width());
            let bits = arr.size_bits();
            let b = banks[i];
            if arr.kind() == ArrayKind::Local {
                return ArrayPlan {
                    placement: Placement::OnChip,
                    banks: b,
                    brams: brams_for_bits(bits).max(b),
                };
            }
            if bits <= mem::CACHE_LIMIT_BITS {
                return ArrayPlan {
                    placement: Placement::Cached {
                        transfer_cycles: burst_cycles(arr.num_elems(), elem_bits),
                    },
                    banks: b,
                    brams: brams_for_bits(bits).max(b),
                };
            }
            if let Some((tile_loop, footprint, num_tiles)) = tile_info[i] {
                let fp_elems = footprint.min(arr.num_elems());
                return ArrayPlan {
                    placement: Placement::TiledCache {
                        tile_loop,
                        per_tile_transfer: burst_cycles(fp_elems, elem_bits),
                        num_tiles: num_tiles.max(1),
                    },
                    banks: b,
                    brams: brams_for_bits(fp_elems * elem_bits * 2).max(b), // double buffer
                };
            }
            ArrayPlan { placement: Placement::Ddr, banks: 1, brams: 0 }
        })
        .collect();

    MemoryPlan { plans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::PragmaValue;
    use hls_ir::{kernels, PragmaKind};

    #[test]
    fn small_interface_arrays_are_cached() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let plan = plan_memory(&k, &space, &space.default_point());
        // 64x64 f32 = 131Kb <= 1Mb cache limit.
        for p in plan.plans() {
            assert!(matches!(p.placement, Placement::Cached { .. }));
        }
    }

    #[test]
    fn large_interface_array_stays_in_ddr() {
        let k = kernels::atax();
        let space = DesignSpace::from_kernel(&k);
        let plan = plan_memory(&k, &space, &space.default_point());
        let a_id = ArrayId(0); // A is 390x410 f32 ≈ 5.1Mb.
        assert_eq!(plan.plan(a_id).placement, Placement::Ddr);
        assert_eq!(plan.plan(a_id).brams, 0);
    }

    #[test]
    fn local_arrays_are_on_chip() {
        let k = kernels::nw();
        let space = DesignSpace::from_kernel(&k);
        let plan = plan_memory(&k, &space, &space.default_point());
        let m = k.arrays().iter().position(|a| a.name() == "M").unwrap();
        assert_eq!(plan.plan(ArrayId(m)).placement, Placement::OnChip);
        assert!(plan.plan(ArrayId(m)).brams > 0);
    }

    #[test]
    fn banks_follow_unroll_factor() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let l2 = k.loop_by_label("L2").unwrap();
        let mut p = space.default_point();
        p.set_value(space.slot_index(l2, PragmaKind::Parallel).unwrap(), PragmaValue::Parallel(16));
        let plan = plan_memory(&k, &space, &p);
        // A and B are indexed by L2 (stride != 0), so they need 16 banks.
        assert_eq!(plan.plan(ArrayId(0)).banks, 16);
        assert_eq!(plan.plan(ArrayId(1)).banks, 16);
        // C is not indexed by L2.
        assert_eq!(plan.plan(ArrayId(2)).banks, 1);
    }

    #[test]
    fn tile_creates_tiled_cache_for_ddr_array() {
        let k = kernels::mm2();
        let space = DesignSpace::from_kernel(&k);
        let l0 = k.loop_by_label("L0").unwrap();
        let mut p = space.default_point();
        p.set_value(space.slot_index(l0, PragmaKind::Tile).unwrap(), PragmaValue::Tile(4));
        let plan = plan_memory(&k, &space, &p);
        // A (180x210 f32 ≈ 1.2Mb) exceeds the cache limit; with tiling on L0
        // it becomes a tiled cache.
        let a_plan = plan.plan(ArrayId(0));
        assert!(
            matches!(a_plan.placement, Placement::TiledCache { .. }),
            "got {:?}",
            a_plan.placement
        );
        assert!(a_plan.brams > 0);
    }

    #[test]
    fn indirect_access_does_not_force_banks() {
        let k = kernels::spmv_ellpack();
        let space = DesignSpace::from_kernel(&k);
        let l1 = k.loop_by_label("L1").unwrap();
        let mut p = space.default_point();
        p.set_value(space.slot_index(l1, PragmaKind::Parallel).unwrap(), PragmaValue::Parallel(10));
        let plan = plan_memory(&k, &space, &p);
        let vec_id = k.arrays().iter().position(|a| a.name() == "vec").unwrap();
        assert_eq!(plan.plan(ArrayId(vec_id)).banks, 1, "indirect gather cannot be banked");
        let nz = k.arrays().iter().position(|a| a.name() == "nzval").unwrap();
        assert_eq!(plan.plan(ArrayId(nz)).banks, 10);
    }
}
