#include "src/structures/tx_rbtree.h"

#include <sstream>
#include <vector>

namespace rhtm
{

//
// Null-tolerant accessors (TreeMap's colorOf/parentOf/leftOf/rightOf).
//

uint64_t
TxRbTree::colorOf(Txn &tx, Node *n)
{
    return n == nullptr ? kBlack : tx.load(&n->color);
}

TxRbTree::Node *
TxRbTree::parentOf(Txn &tx, Node *n)
{
    return n == nullptr ? nullptr : tx.loadPtr(&n->parent);
}

TxRbTree::Node *
TxRbTree::leftOf(Txn &tx, Node *n)
{
    return n == nullptr ? nullptr : tx.loadPtr(&n->left);
}

TxRbTree::Node *
TxRbTree::rightOf(Txn &tx, Node *n)
{
    return n == nullptr ? nullptr : tx.loadPtr(&n->right);
}

void
TxRbTree::setColor(Txn &tx, Node *n, uint64_t color)
{
    if (n != nullptr && tx.load(&n->color) != color)
        tx.store(&n->color, color);
}

//
// Lookup
//

TxRbTree::Node *
TxRbTree::getEntry(Txn &tx, int64_t key) const
{
    Node *p = tx.loadPtr(&root_);
    while (p != nullptr) {
        int64_t k = static_cast<int64_t>(tx.load(&p->key));
        if (key < k)
            p = tx.loadPtr(&p->left);
        else if (key > k)
            p = tx.loadPtr(&p->right);
        else
            return p;
    }
    return nullptr;
}

bool
TxRbTree::get(Txn &tx, int64_t key, int64_t &value_out) const
{
    Node *p = getEntry(tx, key);
    if (p == nullptr)
        return false;
    value_out = static_cast<int64_t>(tx.load(&p->value));
    return true;
}

bool
TxRbTree::contains(Txn &tx, int64_t key) const
{
    return getEntry(tx, key) != nullptr;
}

size_t
TxRbTree::scanRange(Txn &tx, int64_t lo, int64_t hi, size_t limit,
                    std::vector<std::pair<int64_t, int64_t>> &out) const
{
    // In-order walk with an explicit stack of the nodes still to emit,
    // smallest on top. No parent link is read, and each key is read
    // once: the ceiling descent keeps the keys it compared, and a node
    // pushed unread (a left-spine node) has its key read when popped.
    struct Pending
    {
        Node *node;
        int64_t key;
        bool keyKnown;
    };
    // A red-black tree of n nodes is at most 2 log2(n + 1) deep, so 128
    // slots cover any tree that fits in memory. Only an inconsistent
    // snapshot can be deeper; restart rather than overrun.
    constexpr size_t kMaxDepth = 128;
    Pending stack[kMaxDepth];
    size_t depth = 0;
    auto push = [&](Node *n, int64_t key, bool keyKnown) {
        if (depth == kMaxDepth)
            tx.retry();
        stack[depth++] = Pending{n, key, keyKnown};
    };

    // Ceiling descent: a node where the walk turns left is >= lo, and
    // it comes after everything below it on the left.
    for (Node *p = tx.loadPtr(&root_); p != nullptr;) {
        int64_t k = static_cast<int64_t>(tx.load(&p->key));
        if (lo <= k) {
            push(p, k, true);
            if (lo == k)
                break;
            p = tx.loadPtr(&p->left);
        } else {
            p = tx.loadPtr(&p->right);
        }
    }

    size_t appended = 0;
    while (depth > 0) {
        Pending top = stack[--depth];
        int64_t k = top.keyKnown
                        ? top.key
                        : static_cast<int64_t>(tx.load(&top.node->key));
        if (k > hi)
            break;
        out.emplace_back(k,
                         static_cast<int64_t>(tx.load(&top.node->value)));
        ++appended;
        if (limit != 0 && appended >= limit)
            break;
        // The successor is the leftmost node of the right subtree, if
        // any; otherwise it is already on the stack.
        for (Node *p = tx.loadPtr(&top.node->right); p != nullptr;
             p = tx.loadPtr(&p->left))
            push(p, 0, false);
    }
    return appended;
}

//
// Insertion (TreeMap put + fixAfterInsertion)
//

bool
TxRbTree::put(Txn &tx, int64_t key, int64_t value)
{
    Node *t = tx.loadPtr(&root_);
    if (t == nullptr) {
        Node *n = tx.allocObject<Node>();
        tx.storeI64(reinterpret_cast<int64_t *>(&n->key), key);
        tx.storeI64(reinterpret_cast<int64_t *>(&n->value), value);
        tx.store(&n->color, kBlack);
        tx.storePtr(&root_, n);
        return true;
    }
    Node *parent;
    int64_t k;
    do {
        parent = t;
        k = static_cast<int64_t>(tx.load(&t->key));
        if (key < k) {
            t = tx.loadPtr(&t->left);
        } else if (key > k) {
            t = tx.loadPtr(&t->right);
        } else {
            tx.storeI64(reinterpret_cast<int64_t *>(&t->value), value);
            return false;
        }
    } while (t != nullptr);

    Node *n = tx.allocObject<Node>();
    tx.storeI64(reinterpret_cast<int64_t *>(&n->key), key);
    tx.storeI64(reinterpret_cast<int64_t *>(&n->value), value);
    tx.storePtr(&n->parent, parent);
    if (key < k)
        tx.storePtr(&parent->left, n);
    else
        tx.storePtr(&parent->right, n);
    fixAfterInsertion(tx, n);
    return true;
}

void
TxRbTree::rotateLeft(Txn &tx, Node *p)
{
    if (p == nullptr)
        return;
    Node *r = tx.loadPtr(&p->right);
    Node *rl = tx.loadPtr(&r->left);
    tx.storePtr(&p->right, rl);
    if (rl != nullptr)
        tx.storePtr(&rl->parent, p);
    Node *pp = tx.loadPtr(&p->parent);
    tx.storePtr(&r->parent, pp);
    if (pp == nullptr)
        tx.storePtr(&root_, r);
    else if (tx.loadPtr(&pp->left) == p)
        tx.storePtr(&pp->left, r);
    else
        tx.storePtr(&pp->right, r);
    tx.storePtr(&r->left, p);
    tx.storePtr(&p->parent, r);
}

void
TxRbTree::rotateRight(Txn &tx, Node *p)
{
    if (p == nullptr)
        return;
    Node *l = tx.loadPtr(&p->left);
    Node *lr = tx.loadPtr(&l->right);
    tx.storePtr(&p->left, lr);
    if (lr != nullptr)
        tx.storePtr(&lr->parent, p);
    Node *pp = tx.loadPtr(&p->parent);
    tx.storePtr(&l->parent, pp);
    if (pp == nullptr)
        tx.storePtr(&root_, l);
    else if (tx.loadPtr(&pp->right) == p)
        tx.storePtr(&pp->right, l);
    else
        tx.storePtr(&pp->left, l);
    tx.storePtr(&l->right, p);
    tx.storePtr(&p->parent, l);
}

void
TxRbTree::fixAfterInsertion(Txn &tx, Node *x)
{
    tx.store(&x->color, kRed);
    while (x != nullptr && x != tx.loadPtr(&root_) &&
           colorOf(tx, parentOf(tx, x)) == kRed) {
        if (parentOf(tx, x) ==
            leftOf(tx, parentOf(tx, parentOf(tx, x)))) {
            Node *y = rightOf(tx, parentOf(tx, parentOf(tx, x)));
            if (colorOf(tx, y) == kRed) {
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, y, kBlack);
                setColor(tx, parentOf(tx, parentOf(tx, x)), kRed);
                x = parentOf(tx, parentOf(tx, x));
            } else {
                if (x == rightOf(tx, parentOf(tx, x))) {
                    x = parentOf(tx, x);
                    rotateLeft(tx, x);
                }
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, parentOf(tx, parentOf(tx, x)), kRed);
                rotateRight(tx, parentOf(tx, parentOf(tx, x)));
            }
        } else {
            Node *y = leftOf(tx, parentOf(tx, parentOf(tx, x)));
            if (colorOf(tx, y) == kRed) {
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, y, kBlack);
                setColor(tx, parentOf(tx, parentOf(tx, x)), kRed);
                x = parentOf(tx, parentOf(tx, x));
            } else {
                if (x == leftOf(tx, parentOf(tx, x))) {
                    x = parentOf(tx, x);
                    rotateRight(tx, x);
                }
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, parentOf(tx, parentOf(tx, x)), kRed);
                rotateLeft(tx, parentOf(tx, parentOf(tx, x)));
            }
        }
    }
    setColor(tx, tx.loadPtr(&root_), kBlack);
}

//
// Deletion (TreeMap deleteEntry + fixAfterDeletion)
//

TxRbTree::Node *
TxRbTree::successor(Txn &tx, Node *t) const
{
    if (t == nullptr)
        return nullptr;
    Node *r = tx.loadPtr(&t->right);
    if (r != nullptr) {
        Node *p = r;
        for (Node *l = tx.loadPtr(&p->left); l != nullptr;
             l = tx.loadPtr(&p->left)) {
            p = l;
        }
        return p;
    }
    Node *p = tx.loadPtr(&t->parent);
    Node *ch = t;
    while (p != nullptr && ch == tx.loadPtr(&p->right)) {
        ch = p;
        p = tx.loadPtr(&p->parent);
    }
    return p;
}

bool
TxRbTree::remove(Txn &tx, int64_t key)
{
    Node *p = getEntry(tx, key);
    if (p == nullptr)
        return false;
    deleteEntry(tx, p);
    return true;
}

void
TxRbTree::deleteEntry(Txn &tx, Node *p)
{
    // Interior node: copy the successor's pair, then delete the
    // successor instead (it has at most one child).
    if (tx.loadPtr(&p->left) != nullptr &&
        tx.loadPtr(&p->right) != nullptr) {
        Node *s = successor(tx, p);
        tx.store(&p->key, tx.load(&s->key));
        tx.store(&p->value, tx.load(&s->value));
        p = s;
    }

    Node *pl = tx.loadPtr(&p->left);
    Node *replacement = pl != nullptr ? pl : tx.loadPtr(&p->right);

    if (replacement != nullptr) {
        Node *pp = tx.loadPtr(&p->parent);
        tx.storePtr(&replacement->parent, pp);
        if (pp == nullptr)
            tx.storePtr(&root_, replacement);
        else if (p == tx.loadPtr(&pp->left))
            tx.storePtr(&pp->left, replacement);
        else
            tx.storePtr(&pp->right, replacement);
        tx.storePtr(&p->left, static_cast<Node *>(nullptr));
        tx.storePtr(&p->right, static_cast<Node *>(nullptr));
        tx.storePtr(&p->parent, static_cast<Node *>(nullptr));
        if (tx.load(&p->color) == kBlack)
            fixAfterDeletion(tx, replacement);
    } else if (tx.loadPtr(&p->parent) == nullptr) {
        tx.storePtr(&root_, static_cast<Node *>(nullptr));
    } else {
        if (tx.load(&p->color) == kBlack)
            fixAfterDeletion(tx, p);
        Node *pp = tx.loadPtr(&p->parent);
        if (pp != nullptr) {
            if (p == tx.loadPtr(&pp->left))
                tx.storePtr(&pp->left, static_cast<Node *>(nullptr));
            else if (p == tx.loadPtr(&pp->right))
                tx.storePtr(&pp->right, static_cast<Node *>(nullptr));
            tx.storePtr(&p->parent, static_cast<Node *>(nullptr));
        }
    }
    tx.freeObject(p);
}

void
TxRbTree::fixAfterDeletion(Txn &tx, Node *x)
{
    while (x != tx.loadPtr(&root_) && colorOf(tx, x) == kBlack) {
        if (x == leftOf(tx, parentOf(tx, x))) {
            Node *sib = rightOf(tx, parentOf(tx, x));
            if (colorOf(tx, sib) == kRed) {
                setColor(tx, sib, kBlack);
                setColor(tx, parentOf(tx, x), kRed);
                rotateLeft(tx, parentOf(tx, x));
                sib = rightOf(tx, parentOf(tx, x));
            }
            if (colorOf(tx, leftOf(tx, sib)) == kBlack &&
                colorOf(tx, rightOf(tx, sib)) == kBlack) {
                setColor(tx, sib, kRed);
                x = parentOf(tx, x);
            } else {
                if (colorOf(tx, rightOf(tx, sib)) == kBlack) {
                    setColor(tx, leftOf(tx, sib), kBlack);
                    setColor(tx, sib, kRed);
                    rotateRight(tx, sib);
                    sib = rightOf(tx, parentOf(tx, x));
                }
                setColor(tx, sib, colorOf(tx, parentOf(tx, x)));
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, rightOf(tx, sib), kBlack);
                rotateLeft(tx, parentOf(tx, x));
                x = tx.loadPtr(&root_);
            }
        } else {
            Node *sib = leftOf(tx, parentOf(tx, x));
            if (colorOf(tx, sib) == kRed) {
                setColor(tx, sib, kBlack);
                setColor(tx, parentOf(tx, x), kRed);
                rotateRight(tx, parentOf(tx, x));
                sib = leftOf(tx, parentOf(tx, x));
            }
            if (colorOf(tx, rightOf(tx, sib)) == kBlack &&
                colorOf(tx, leftOf(tx, sib)) == kBlack) {
                setColor(tx, sib, kRed);
                x = parentOf(tx, x);
            } else {
                if (colorOf(tx, leftOf(tx, sib)) == kBlack) {
                    setColor(tx, rightOf(tx, sib), kBlack);
                    setColor(tx, sib, kRed);
                    rotateLeft(tx, sib);
                    sib = leftOf(tx, parentOf(tx, x));
                }
                setColor(tx, sib, colorOf(tx, parentOf(tx, x)));
                setColor(tx, parentOf(tx, x), kBlack);
                setColor(tx, leftOf(tx, sib), kBlack);
                rotateRight(tx, parentOf(tx, x));
                x = tx.loadPtr(&root_);
            }
        }
    }
    setColor(tx, x, kBlack);
}

//
// Quiescent helpers (plain pointer access; no transactions running)
//

uint64_t
TxRbTree::sizeUnsync() const
{
    uint64_t count = 0;
    std::vector<const Node *> stack;
    if (root_)
        stack.push_back(root_);
    while (!stack.empty()) {
        const Node *n = stack.back();
        stack.pop_back();
        ++count;
        if (n->left)
            stack.push_back(n->left);
        if (n->right)
            stack.push_back(n->right);
    }
    return count;
}

int
TxRbTree::validateNode(const Node *n, const Node *parent, int64_t lo,
                       bool has_lo, int64_t hi, bool has_hi,
                       std::string *why) const
{
    if (n == nullptr)
        return 1; // Null leaves are black.
    auto fail = [&](const std::string &msg) {
        if (why) {
            std::ostringstream os;
            os << msg << " at key "
               << static_cast<int64_t>(n->key);
            *why = os.str();
        }
        return -1;
    };
    if (n->parent != parent)
        return fail("bad parent link");
    int64_t k = static_cast<int64_t>(n->key);
    if ((has_lo && k <= lo) || (has_hi && k >= hi))
        return fail("BST order violated");
    if (n->color == kRed) {
        if ((n->left && n->left->color == kRed) ||
            (n->right && n->right->color == kRed)) {
            return fail("red node with red child");
        }
    } else if (n->color != kBlack) {
        return fail("invalid color value");
    }
    int lh = validateNode(n->left, n, lo, has_lo, k, true, why);
    if (lh < 0)
        return -1;
    int rh = validateNode(n->right, n, k, true, hi, has_hi, why);
    if (rh < 0)
        return -1;
    if (lh != rh)
        return fail("black height mismatch");
    return lh + (n->color == kBlack ? 1 : 0);
}

bool
TxRbTree::validateStructure(std::string *why) const
{
    if (root_ == nullptr)
        return true;
    if (root_->color != kBlack) {
        if (why)
            *why = "root is not black";
        return false;
    }
    return validateNode(root_, nullptr, 0, false, 0, false, why) >= 0;
}

void
TxRbTree::clearUnsync(ThreadMem &mem)
{
    std::vector<Node *> stack;
    if (root_)
        stack.push_back(root_);
    root_ = nullptr;
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        if (n->left)
            stack.push_back(n->left);
        if (n->right)
            stack.push_back(n->right);
        mem.rawFree(n, sizeof(Node));
    }
}

} // namespace rhtm
