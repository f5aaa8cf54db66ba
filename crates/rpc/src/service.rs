//! Service and connection abstractions shared by all transports.

use jiffy_sync::atomic::{AtomicU64, Ordering};
use jiffy_sync::Arc;

use jiffy_common::Result;
use jiffy_proto::{Envelope, Notification};
use jiffy_sync::Mutex;

/// Callback invoked on the client side when the server pushes a
/// [`Notification`].
pub type PushCallback = Arc<dyn Fn(Notification) + Send + Sync>;

static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

/// Identifies one client session at a server and lets the server push
/// notifications to it asynchronously.
///
/// The subscription map of a memory server stores these handles; when a
/// subscribed operation executes, the server calls [`SessionHandle::push`]
/// for every subscriber.
#[derive(Clone)]
pub struct SessionHandle {
    id: u64,
    pusher: Arc<dyn Fn(Notification) + Send + Sync>,
}

impl SessionHandle {
    /// Creates a handle around a transport-specific push function.
    pub fn new(pusher: Arc<dyn Fn(Notification) + Send + Sync>) -> Self {
        Self {
            id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
            pusher,
        }
    }

    /// Pushes a notification to the session's client. Delivery is
    /// best-effort: a disconnected session drops the notification.
    pub fn push(&self, n: Notification) {
        (self.pusher)(n);
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionHandle({})", self.id)
    }
}

impl PartialEq for SessionHandle {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for SessionHandle {}

impl std::hash::Hash for SessionHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

/// A request handler: the controller and every memory server implement
/// this. One call per request envelope; responses are returned inline,
/// notifications go out-of-band through the [`SessionHandle`].
pub trait Service: Send + Sync + 'static {
    /// Handles one request and produces the response envelope.
    fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope;

    /// Invoked when a session disconnects so the service can clean up
    /// subscriptions held for it.
    fn on_disconnect(&self, _session: &SessionHandle) {}
}

impl<T: Service + ?Sized> Service for Arc<T> {
    fn handle(&self, req: Envelope, session: &SessionHandle) -> Envelope {
        (**self).handle(req, session)
    }

    fn on_disconnect(&self, session: &SessionHandle) {
        (**self).on_disconnect(session);
    }
}

/// Transport-agnostic client connection.
///
/// Implementations must allow concurrent `call`s from multiple threads.
pub trait Connection: Send + Sync {
    /// Issues one request and blocks for the matching response.
    fn call(&self, req: Envelope) -> Result<Envelope>;

    /// Registers the callback invoked for server pushes on this
    /// connection. Replaces any previous callback.
    fn set_push_callback(&self, cb: PushCallback);

    /// Closes the connection, releasing transport resources.
    fn close(&self);
}

/// Shared, cloneable handle to a [`Connection`].
#[derive(Clone)]
pub struct ClientConn(pub Arc<dyn Connection>);

impl ClientConn {
    /// Issues one request and blocks for the matching response.
    pub fn call(&self, req: Envelope) -> Result<Envelope> {
        self.0.call(req)
    }

    /// Registers the push callback for this connection.
    pub fn set_push_callback(&self, cb: PushCallback) {
        self.0.set_push_callback(cb);
    }

    /// Closes the connection.
    pub fn close(&self) {
        self.0.close();
    }
}

impl std::fmt::Debug for ClientConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientConn")
    }
}

/// A slot holding the client's push callback; shared between the
/// connection facade and the transport's receive path.
#[derive(Clone, Default)]
pub struct PushSlot(Arc<Mutex<Option<PushCallback>>>);

impl PushSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (replaces) the callback.
    pub fn set(&self, cb: PushCallback) {
        *self.0.lock() = Some(cb);
    }

    /// Invokes the callback if one is registered.
    pub fn deliver(&self, n: Notification) {
        let cb = self.0.lock().clone();
        if let Some(cb) = cb {
            cb(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_common::BlockId;
    use jiffy_proto::OpKind;
    use jiffy_sync::atomic::AtomicUsize;

    fn notif(seq: u64) -> Notification {
        Notification {
            block: BlockId(0),
            op: OpKind::Enqueue,
            size: 1,
            seq,
        }
    }

    #[test]
    fn session_handles_are_unique() {
        let p: Arc<dyn Fn(Notification) + Send + Sync> = Arc::new(|_| {});
        let a = SessionHandle::new(p.clone());
        let b = SessionHandle::new(p);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn push_invokes_callback() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        let h = SessionHandle::new(Arc::new(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        h.push(notif(1));
        h.push(notif(2));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn push_slot_delivers_only_when_set() {
        let slot = PushSlot::new();
        // No callback yet: silently dropped.
        slot.deliver(notif(1));
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = count.clone();
        slot.set(Arc::new(move |n| {
            assert_eq!(n.seq, 2);
            c2.fetch_add(1, Ordering::SeqCst);
        }));
        slot.deliver(notif(2));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
