// Seeded-bad fixture for sb7-lint R2 (raw Field access scope). Never
// compiled — the selftest treats this file as living outside src/stm/ and
// src/mvstm/ and expects an R2 finding for each of the three unannotated
// calls in SneakPastTheSeam.

struct Field {
  unsigned long LoadRaw() const { return 0; }  // raw-ok: stand-in declaration
  void StoreRaw(unsigned long) {}              // raw-ok: stand-in declaration
  unsigned long& LockWord() const;             // raw-ok: stand-in declaration
};

unsigned long SneakPastTheSeam(Field& field) {
  field.StoreRaw(7);        // raw store outside the seam, not annotated
  field.LockWord() = 1;     // a field's lock touched outside the backends
  return field.LoadRaw();   // raw load, likewise
}
