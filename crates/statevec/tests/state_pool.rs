//! A state's buffer makes one round trip through the process's pool: taken
//! when the state is made, given back when it is dropped. A state moved out
//! with `into_amplitudes` gives nothing back, and a clone gives back its own
//! buffer, never the original's. One test function in its own binary, so
//! nothing else takes from or gives to the pool while it counts.

use hisvsim_statevec::{buffers, StateVector};

#[test]
fn a_dropped_state_gives_its_buffer_back_and_a_moved_one_does_not() {
    let qubits = 12;
    let bytes = 16u64 << qubits;
    let before = buffers::retained_bytes();

    let state = StateVector::zero_state(qubits);
    let original = state.amplitudes().as_ptr();
    drop(state);
    assert_eq!(buffers::retained_bytes(), before + bytes);

    // The next state of that width is the dropped one's buffer, zeroed anew.
    let mut state = StateVector::zero_state(qubits);
    assert_eq!(state.amplitudes().as_ptr(), original);
    assert_eq!(buffers::retained_bytes(), before);
    assert_eq!(state, StateVector::zero_state(qubits));
    assert_eq!(buffers::retained_bytes(), before + bytes);

    // A clone copies into a buffer of its own and gives that one back.
    state.amplitudes_mut()[1] = state.amp(0);
    let copy = state.clone();
    let copied = copy.amplitudes().as_ptr();
    assert_ne!(copied, original);
    assert_eq!(copy, state);
    drop(copy);
    assert_eq!(buffers::retained_bytes(), before + bytes);

    // Moved out, the buffer is its new owner's: nothing comes back.
    let amps = state.into_amplitudes();
    assert_eq!(amps.as_ptr(), original);
    assert_eq!(buffers::retained_bytes(), before + bytes);
    let kept: Vec<_> = (0..2).map(|_| StateVector::uninitialized(qubits)).collect();
    assert!(kept
        .iter()
        .all(|state| state.amplitudes().as_ptr() != original));
    assert!(kept
        .iter()
        .any(|state| state.amplitudes().as_ptr() == copied));
    assert_eq!(buffers::retained_bytes(), before);

    // A buffer made elsewhere joins the pool when its state is dropped.
    drop(StateVector::from_amplitudes(amps));
    assert_eq!(buffers::retained_bytes(), before + bytes);
}
