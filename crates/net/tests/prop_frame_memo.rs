//! Differential property tests for the memoized frame path: for arbitrary
//! byte content, every memoized derivation on [`Frame`] is bit-identical
//! to the stateless computation on the raw bytes, and stays identical
//! across clones and slices (which share or fork the memo) and across an
//! encapsulation (whose tail slice is the inner frame, memo included).

use bytes::Bytes;
use netco_net::packet::PacketFields;
use netco_net::{fnv1a, fp128, memo_stats, Frame};
use proptest::prelude::*;

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

proptest! {
    /// The memoized fingerprint equals the stateless hash of the same
    /// bytes, on the first call (the computing one) and on every repeat.
    #[test]
    fn memoized_fp128_matches_fresh(data in arb_bytes()) {
        let fresh = fp128(&data);
        let frame = Frame::from(data);
        prop_assert_eq!(frame.fp128(), fresh);
        prop_assert_eq!(frame.fp128(), fresh);
    }

    /// The memoized header view equals a fresh sniff of the same bytes,
    /// and `fields_on` only differs in the stamped ingress port.
    #[test]
    fn memoized_fields_match_fresh_sniff(data in arb_bytes(), port in any::<u16>()) {
        let fresh = PacketFields::sniff(&data, 0);
        let frame = Frame::from(data.clone());
        prop_assert_eq!(frame.fields().clone(), fresh);
        let mut stamped = PacketFields::sniff(&data, port);
        prop_assert_eq!(frame.fields_on(port), stamped.clone());
        stamped.in_port = 0;
        prop_assert_eq!(frame.fields().clone(), stamped);
    }

    /// Clones share the memo: a value computed through any clone is the
    /// same value (and costs nothing) through every other clone.
    #[test]
    fn memo_survives_clone(data in arb_bytes()) {
        let frame = Frame::from(data.clone());
        let copy = frame.clone();
        let before = memo_stats();
        let via_copy = copy.fp128();
        let via_original = frame.fp128();
        let d = memo_stats().since(before);
        prop_assert_eq!(via_copy, via_original);
        prop_assert_eq!(via_copy, fp128(&data));
        prop_assert_eq!(d.fp_misses, 1);
        prop_assert_eq!(d.fp_hits, 1);
    }

    /// A full-range slice is the same content and keeps the memo; a
    /// proper sub-slice is new content whose derivations match a fresh
    /// computation over the sub-range.
    #[test]
    fn memo_survives_full_slice_and_forks_on_sub_slice(
        data in arb_bytes(),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let frame = Frame::from(data.clone());
        let full = frame.slice(..);
        prop_assert_eq!(full.fp128(), frame.fp128());

        let (mut lo, mut hi) = (a as usize % (data.len() + 1), b as usize % (data.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let sub = frame.slice(lo..hi);
        prop_assert_eq!(sub.fp128(), fp128(&data[lo..hi]));
        prop_assert_eq!(
            sub.fields().clone(),
            PacketFields::sniff(&data[lo..hi], 0)
        );
        // Zero-copy: the sub-slice views the original frame's buffer.
        prop_assert_eq!(sub.bytes().as_ptr(), frame.bytes()[lo..].as_ptr());
    }

    /// The tail of an encapsulating frame — taken from the frame or from a
    /// clone of it — is the inner frame itself, memo included: every
    /// derivation the inner frame already made is answered without
    /// touching the bytes. The wrapper's bytes are `head ++ inner`. Any
    /// other sub-range, and the same wire bytes framed afresh, start cold.
    #[test]
    fn encapsulated_tail_carries_the_inner_memo(
        head in proptest::collection::vec(any::<u8>(), 0..netco_net::MAX_ENCAP_HEAD + 1),
        data in arb_bytes(),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let inner = Frame::from(data.clone());
        let (fp, fields, views) = (inner.fp128(), inner.fields().clone(), inner.views().cloned());
        let wire = [&head[..], &data[..]].concat();
        let outer = Frame::encapsulating(&head, &inner);
        prop_assert_eq!(outer.len(), wire.len());
        prop_assert_eq!(outer.is_empty(), wire.is_empty());
        prop_assert_eq!(outer.encapsulated().map(|(h, _)| h.to_vec()), Some(head.clone()));
        prop_assert_eq!(&outer, &Bytes::from(wire.clone()));

        for carrier in [outer.clone(), outer.clone().slice(..)] {
            let tail = carrier.slice(head.len()..);
            let before = memo_stats();
            prop_assert_eq!(tail.fp128(), fp);
            prop_assert_eq!(tail.fields(), &fields);
            prop_assert_eq!(tail.views().cloned(), views.clone());
            prop_assert_eq!(memo_stats().since(before).misses(), 0);
            prop_assert_eq!(&tail, &inner);
            prop_assert_eq!(tail.bytes().as_ptr(), inner.bytes().as_ptr());
        }
        // The wrapper's own derivations are of the wrapper's bytes.
        prop_assert_eq!(outer.fp128(), fp128(&wire));
        prop_assert_eq!(outer.bytes(), &Bytes::from(wire.clone()));

        let (mut lo, mut hi) = (a as usize % (wire.len() + 1), b as usize % (wire.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        if (lo, hi) != (head.len(), wire.len()) && (lo, hi) != (0, wire.len()) {
            let sub = outer.slice(lo..hi);
            let before = memo_stats();
            prop_assert_eq!(sub.fp128(), fp128(&wire[lo..hi]));
            prop_assert_eq!(memo_stats().since(before).fp_misses, 1);
        }
        let rebuilt = Frame::from(wire.clone()).slice(head.len()..);
        let before = memo_stats();
        prop_assert_eq!(rebuilt.fp128(), fp);
        prop_assert_eq!(rebuilt.fields(), &fields);
        prop_assert_eq!(memo_stats().since(before).misses(), 2);
    }

    /// `Frame::fnv1a` is the stateless FNV-1a of the frame's bytes on a
    /// contiguous frame, a sub-slice, an encapsulation and an
    /// encapsulation of an encapsulation, and every clone answers with the
    /// value the first call computed, whichever clone made it. Hashing a
    /// wrapper counts no fingerprint or parse.
    #[test]
    fn memoized_fnv1a_matches_fresh_on_every_shape(
        head in proptest::collection::vec(any::<u8>(), 0..netco_net::MAX_ENCAP_HEAD + 1),
        outer_head in proptest::collection::vec(any::<u8>(), 0..9),
        data in arb_bytes(),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let frame = Frame::from(data.clone());
        let copy = frame.clone();
        prop_assert_eq!(copy.fnv1a(), fnv1a(&data));
        prop_assert_eq!(frame.fnv1a(), copy.fnv1a());

        let (mut lo, mut hi) = (a as usize % (data.len() + 1), b as usize % (data.len() + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let sub = frame.slice(lo..hi);
        prop_assert_eq!(sub.clone().fnv1a(), fnv1a(&data[lo..hi]));
        prop_assert_eq!(sub.fnv1a(), fnv1a(&data[lo..hi]));

        let before = memo_stats();
        let wrapped = Frame::encapsulating(&head, &frame);
        let twice = Frame::encapsulating(&outer_head, &wrapped);
        let wire = [&head[..], &data[..]].concat();
        let wire_twice = [&outer_head[..], &wire[..]].concat();
        prop_assert_eq!(twice.clone().fnv1a(), fnv1a(&wire_twice));
        prop_assert_eq!(wrapped.clone().fnv1a(), fnv1a(&wire));
        prop_assert_eq!(twice.fnv1a(), fnv1a(&wire_twice));
        prop_assert_eq!(wrapped.fnv1a(), fnv1a(&wire));
        prop_assert_eq!(memo_stats().since(before).misses(), 0);
        prop_assert_eq!(twice.slice(outer_head.len()..).fnv1a(), fnv1a(&wire));
    }

    /// Round-tripping through `Bytes` (the facade every legacy call site
    /// uses) never changes what the derivations see.
    #[test]
    fn facade_round_trip_is_content_preserving(data in arb_bytes()) {
        let frame = Frame::from(data.clone());
        let bytes = Bytes::from(frame.clone());
        prop_assert_eq!(&bytes[..], &data[..]);
        let back = Frame::from(bytes);
        prop_assert_eq!(back.fp128(), frame.fp128());
        prop_assert_eq!(back, frame);
    }
}
