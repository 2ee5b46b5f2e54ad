//! `flexvc_serde` conversions for topology types.

use crate::GlobalArrangement;
use flexvc_serde::keywords;

keywords!(GlobalArrangement, "global arrangement" {
    Consecutive => "consecutive",
    Palmtree => "palmtree",
});

#[cfg(test)]
mod tests {
    use super::*;
    use flexvc_serde::{from_json, to_json};

    #[test]
    fn global_arrangement_round_trips() {
        for ga in [GlobalArrangement::Consecutive, GlobalArrangement::Palmtree] {
            assert_eq!(from_json::<GlobalArrangement>(&to_json(&ga)).unwrap(), ga);
        }
        assert!(from_json::<GlobalArrangement>("\"spiral\"").is_err());
    }
}
