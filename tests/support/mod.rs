//! Shared by the differential harnesses (`differential`, `ingest_differential`,
//! `topk_differential`): delta debugging over a failing case.

/// ddmin over one list-valued field of a case: greedily removes chunks
/// (halving the chunk size) for as long as `still_fails` keeps holding.
/// Generic over the case type and the field's accessors, and the predicate
/// is a parameter, so one shrinker serves every harness — oracle
/// differentials and the sim-vs-threads cross-backend comparison alike.
pub fn ddmin<C: Clone, T>(
    case: &C,
    still_fails: &dyn Fn(&C) -> bool,
    get: fn(&C) -> &Vec<T>,
    get_mut: fn(&mut C) -> &mut Vec<T>,
) -> C {
    let mut best = case.clone();
    let mut chunk = (get(&best).len() / 2).max(1);
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < get(&best).len() {
            let mut candidate = best.clone();
            let upper = (i + chunk).min(get(&candidate).len());
            get_mut(&mut candidate).drain(i..upper);
            if still_fails(&candidate) {
                best = candidate;
                shrunk = true;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            if !shrunk {
                return best;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
}
