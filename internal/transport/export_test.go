package transport

// InboxDepth is the inbox capacity, which the contract test sizes its
// bursts by.
const InboxDepth = inboxDepth
