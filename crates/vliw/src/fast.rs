//! The functional tier's name for the one atomic-region state.
//!
//! The functional tier has no alias hardware and no state of its own:
//! its lowering (`smarq_opt::fastcomp`) replays the region's hardware
//! once at translation time, reading each check's ordered producer list
//! off [`AnyAliasHw::walk`](crate::AnyAliasHw::walk), so its hot loop
//! only compares addresses, and it runs over the cycle simulator's
//! [`VliwState`].

use crate::VliwState;

/// The functional tier's former name for [`VliwState`], kept so callers
/// written against it still build.
pub type FastState = VliwState;

#[cfg(test)]
mod tests {
    use super::*;

    /// The functional tier's state is the cycle simulator's state: guest
    /// registers marshal in and out through it, and a sampled tier-down
    /// hands the very same value to the simulator with no copy step.
    #[test]
    fn state_marshal_roundtrips() {
        let mut fs = FastState::new();
        let mut regs = [0i64; 32];
        let mut fregs = [0f64; 32];
        regs[5] = 99;
        fregs[7] = 2.5;
        fs.load_guest(&regs, &fregs);
        assert_eq!(fs.regs[5], 99);
        let mut r2 = [0i64; 32];
        let mut f2 = [0f64; 32];
        fs.store_guest(&mut r2, &mut f2);
        assert_eq!(r2, regs);
        assert_eq!(f2, fregs);

        fs.regs[40] = -7;
        fs.fregs[63] = 0.5;
        let vs: VliwState = fs.clone();
        assert_eq!(vs.regs, fs.regs);
        assert_eq!(vs.fregs, fs.fregs);
    }
}
