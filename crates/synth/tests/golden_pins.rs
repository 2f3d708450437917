//! Golden pins for the ordered enumeration: for each bound and option
//! mix, the program count and an FNV-1a-64 hash of the `Debug`
//! rendering of the whole [`programs`] list (every root partition, in
//! ordinal order). Any change to which programs are enumerated, or to
//! their order, moves a pin.

use transform_synth::programs::{programs, EnumOptions};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(bound: usize, fences: bool, rmw: bool, count: usize, hash: u64) {
    let mut opts = EnumOptions::new(bound);
    opts.allow_fences = fences;
    opts.allow_rmw = rmw;
    let progs = programs(&opts);
    let got = fnv1a64(format!("{progs:?}").as_bytes());
    assert_eq!(
        (progs.len(), got),
        (count, hash),
        "bound {bound} fences {fences} rmw {rmw}: got {} programs, hash {got:#018x}",
        progs.len()
    );
}

#[test]
fn bound_4_pins() {
    check(4, false, false, 47, 0xe81d_3a16_bbec_3125);
    check(4, true, false, 51, 0x82d9_4bda_42c1_41ec);
    check(4, false, true, 48, 0x29fa_f02a_23eb_cdb0);
    check(4, true, true, 52, 0x9c2e_8756_49f3_bb3f);
}

#[test]
fn bound_5_pins() {
    check(5, false, false, 137, 0x60c9_d694_afe1_4eaf);
    check(5, true, false, 234, 0xa69a_5188_3d2c_160a);
    check(5, false, true, 141, 0x2437_7ddb_69bb_5104);
    check(5, true, true, 238, 0xe515_1278_4aca_0c97);
}

#[test]
fn bound_6_fences_rmw_pin() {
    check(6, true, true, 2725, 0xff6c_29bc_b102_32f8);
}
