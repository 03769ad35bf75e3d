// Fixture: rule `snap-mutate`. Never compiled — read as text by
// tests/fixtures.rs and linted under a virtual crates/core path.

fn bad(ctx: &mut SchedCtx<'_>, u: &mut GpuUnit, r: Request) {
    ctx.cluster.global_queue.push_back(r); // line 5: finding (mutating call)
    u.local_queue.pop_front(); // line 6: finding (mutating call)
    u.in_flight = None; // line 7: finding (assignment)
    let q = &mut ctx.cluster.units[3].local_queue; // line 8: finding (&mut borrow)
    q.clear();
}

fn good(ctx: &SchedCtx<'_>, u: &GpuUnit) -> usize {
    // Reads and comparisons are fine; so are lookalike locals.
    let mut local_queue = std::collections::VecDeque::new();
    local_queue.push_back(1u32);
    if u.in_flight == None {
        return local_queue.len();
    }
    u.local_queue.len() + ctx.cluster.global_queue.len()
}

fn waived(u: &mut GpuUnit) {
    // gfaas-lint: allow(snap-mutate, test harness builds a standalone unit never owned by a journal)
    u.local_queue.push_back(req(1, 0));
}

fn reaches_through(ctx: &mut SchedCtx<'_>, u: &mut GpuUnit) {
    ctx.cluster.st.global_queue[0].visits += 1; // line 28: finding (indexed element write)
    ctx.cluster.units[2].hits = 0; // line 29: finding (indexed assignment)
    for r in ctx.cluster.st.global_queue.iter_mut() { // line 30: finding (`_mut` accessor)
        r.visits = 0;
    }
    u.local_queue.get_mut(0).unwrap().visits <<= 1; // line 33: finding (`_mut` accessor)
    u.in_flight.as_mut().unwrap().seq = 7; // line 34: finding (`_mut` accessor)
    let _ = (u.local_queue.front_mut(), u.holding.as_ref()); // line 35: finding (`_mut` accessor)
    // gfaas-lint: allow(snap-mutate, fixture: a waived write through a `_mut` accessor)
    u.local_queue.back_mut().unwrap().visits += 1;
}

fn reads_through(ctx: &SchedCtx<'_>, u: &GpuUnit) -> bool {
    // Indexed and nested reads, comparisons and non-`_mut` accessors stay silent.
    ctx.cluster.st.global_queue[0].visits == 0
        && u.local_queue[1].model != ctx.cluster.units[2].local_queue[0].model
        && ctx.cluster.units[3].hits >= 4
        && u.in_flight.as_ref().is_some()
        && u.local_queue.get(0).is_none()
}
