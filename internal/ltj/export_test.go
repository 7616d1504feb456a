package ltj

// RingdebugEnabled tells the external tests whether this build performs
// (and asserts) the binds the last-variable elision skips.
const RingdebugEnabled = ringdebugEnabled
